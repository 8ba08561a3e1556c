// The differential store fuzzer (DESIGN.md §2d): the production stores
// must survive the CI seed budget, and a store with a deliberately
// injected bug must be caught well inside it — otherwise the harness is
// theater.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "check/faulty_store.h"
#include "check/store_fuzzer.h"

namespace carp::check {

// Prints a fault by name, so the AllFaults test ids name the bug they
// inject and stay put when the enum is renumbered.
void PrintTo(StoreFault fault, std::ostream* os) {
  switch (fault) {
    case StoreFault::kGhostInsert:
      *os << "GhostInsert";
      return;
    case StoreFault::kDropRemove:
      *os << "DropRemove";
      return;
    case StoreFault::kPruneOffByOne:
      *os << "PruneOffByOne";
      return;
    case StoreFault::kStaleSummary:
      *os << "StaleSummary";
      return;
    case StoreFault::kLostRollback:
      *os << "LostRollback";
      return;
  }
}

namespace {

TEST(StoreFuzzTest, ProductionStoresSurviveSeedBudget) {
  StoreFuzzOptions opt;
  opt.num_seeds = 50;
  const StoreFuzzResult r = FuzzStores(opt, DefaultStoreFactories());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.ops_executed,
            static_cast<std::int64_t>(opt.num_seeds) * opt.ops_per_seed);
}

class InjectedFaultTest : public ::testing::TestWithParam<StoreFault> {};

TEST_P(InjectedFaultTest, CaughtWithinSmokeBudget) {
  const StoreFault fault = GetParam();
  auto factories = DefaultStoreFactories();
  factories.push_back(NamedStoreFactory{
      "faulty", [fault] { return std::make_unique<FaultySegmentStore>(fault); }});

  StoreFuzzOptions opt;
  opt.num_seeds = 20;  // a tenth of the CI smoke budget
  const StoreFuzzResult r = FuzzStores(opt, factories);
  ASSERT_FALSE(r.ok) << "injected bug survived " << r.ops_executed << " ops";
  // The report names the diverging store and the seed that replays it.
  EXPECT_NE(r.error.find("faulty"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("seed"), std::string::npos) << r.error;
}

INSTANTIATE_TEST_SUITE_P(AllFaults, InjectedFaultTest,
                         ::testing::Values(StoreFault::kGhostInsert,
                                           StoreFault::kDropRemove,
                                           StoreFault::kPruneOffByOne,
                                           StoreFault::kStaleSummary),
                         ::testing::PrintToStringParamName());

// ---- Lifecycle-rollback fuzz (ISSUE 8 satellite; DESIGN.md §2i). The
// LNS refiner's rollback contract — release then recommit is a true no-op
// — exercised at store granularity, with the kLostRollback calibration
// fault proving the after-round audits can actually see a violated
// rollback.

TEST(LifecycleFuzzTest, CleanStoresSurviveSeedBudget) {
  LifecycleFuzzOptions opt;
  opt.num_seeds = 20;
  const StoreFuzzResult r =
      FuzzLifecycleRollback(opt, /*inject_lost_rollback=*/false);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.ops_executed,
            static_cast<std::int64_t>(opt.num_seeds) * opt.rounds_per_seed);
}

TEST(LifecycleFuzzTest, LostRollbackCaughtWithinSmokeBudget) {
  LifecycleFuzzOptions opt;
  opt.num_seeds = 20;  // the ISSUE's calibration budget
  const StoreFuzzResult r =
      FuzzLifecycleRollback(opt, /*inject_lost_rollback=*/true);
  ASSERT_FALSE(r.ok) << "kLostRollback survived " << r.ops_executed
                     << " rounds";
  EXPECT_NE(r.error.find("seed"), std::string::npos) << r.error;
}

TEST(LifecycleFuzzTest, LostRollbackReportReplaysDeterministically) {
  LifecycleFuzzOptions opt;
  opt.num_seeds = 20;
  const StoreFuzzResult first =
      FuzzLifecycleRollback(opt, /*inject_lost_rollback=*/true);
  ASSERT_FALSE(first.ok);

  LifecycleFuzzOptions replay_opt = opt;
  replay_opt.seed = first.failing_seed;
  replay_opt.num_seeds = 1;
  const StoreFuzzResult replay =
      FuzzLifecycleRollback(replay_opt, /*inject_lost_rollback=*/true);
  ASSERT_FALSE(replay.ok);
  EXPECT_EQ(replay.failing_seed, first.failing_seed);
  EXPECT_EQ(replay.error, first.error);
}

TEST(StoreFuzzTest, FailingSeedReplaysDeterministically) {
  auto factories = DefaultStoreFactories();
  factories.push_back(NamedStoreFactory{"faulty", [] {
    return std::make_unique<FaultySegmentStore>(StoreFault::kGhostInsert);
  }});

  StoreFuzzOptions opt;
  opt.num_seeds = 20;
  const StoreFuzzResult first = FuzzStores(opt, factories);
  ASSERT_FALSE(first.ok);

  // Replaying exactly the reported seed (fresh stores, same op stream)
  // reproduces the identical report — the contract behind "replay with
  // --seed=<S>".
  const StoreFuzzResult replay =
      FuzzOneSeed(first.failing_seed, opt, factories);
  ASSERT_FALSE(replay.ok);
  EXPECT_EQ(replay.failing_seed, first.failing_seed);
  EXPECT_EQ(replay.error, first.error);
}

}  // namespace
}  // namespace carp::check
