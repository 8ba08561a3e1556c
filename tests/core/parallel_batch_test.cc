// Tests of the speculative parallel PlanBatch pipeline: determinism across
// thread counts, equality with the serial prioritized loop, collision-
// freedom under contention, validate-then-commit (a speculative route
// that loses validation is never committed), and the one-wave threshold
// below which a batch plans serially on the calling thread.
//
// PlanBatch only speculates a batch that fills one wave, so the tests of
// the speculative path on small batches set `wave_size` explicitly.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "baselines/planner_factory.h"
#include "core/batch_planner.h"
#include "core/collision.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "srp/srp_planner.h"

namespace carp::core {
namespace {

const layout::Warehouse& W1() {
  static auto* w = new layout::Warehouse(
      layout::GenerateWarehouse(layout::PresetByName("W-1")));
  return *w;
}

// Rack-access -> picker queries with distinct origins and destinations
// (the W-1 scenario of the determinism test; fixed seed).
std::vector<BatchQuery> SpreadQueries(const layout::Warehouse& w,
                                      std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> racks(w.rack_access.size());
  std::vector<std::size_t> pickers(w.pickers.size());
  for (std::size_t i = 0; i < racks.size(); ++i) racks[i] = i;
  for (std::size_t i = 0; i < pickers.size(); ++i) pickers[i] = i;
  std::shuffle(racks.begin(), racks.end(), rng);
  std::shuffle(pickers.begin(), pickers.end(), rng);
  count = std::min({count, racks.size(), pickers.size()});
  std::vector<BatchQuery> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back(
        BatchQuery{w.rack_access[racks[i]], w.pickers[pickers[i]]});
  }
  return queries;
}

// Heavily interacting batch on the tiny warehouse: opposing pairs through
// the same margin rows, guaranteed to invalidate speculative routes.
std::vector<BatchQuery> ContendingBatch() {
  std::vector<BatchQuery> queries;
  for (int k = 0; k < 4; ++k) {
    queries.push_back(BatchQuery{{k % 2, 0}, {k % 2, 12}});
    queries.push_back(BatchQuery{{k % 2, 12}, {k % 2, 0}});
  }
  return queries;
}

// Plans `queries` with `threads` workers and waves of `wave_size` queries
// (0 = auto) and returns the planner's committed routes.
std::vector<Route> CommittedSet(Planner& planner,
                                const std::vector<BatchQuery>& queries,
                                int threads, int wave_size,
                                BatchResult* out = nullptr) {
  BatchPlanOptions options;
  options.threads = threads;
  options.wave_size = wave_size;
  BatchResult result = PlanBatch(planner, /*t=*/0, queries, options);
  if (out != nullptr) *out = result;
  return planner.committed_routes();
}

TEST(ParallelBatchTest, ThreadCountsMatchSerialOnSpreadW1Batch) {
  const auto& w = W1();
  const auto queries = SpreadQueries(w, 24, /*seed=*/17);
  ASSERT_GE(queries.size(), 20u);

  // Reference: the historic serial entry point (no execution options).
  srp::SrpPlanner serial(w.matrix);
  const auto serial_result = PlanBatch(serial, 0, queries);
  EXPECT_EQ(serial_result.failed, 0);
  const std::vector<Route> reference = serial.committed_routes();
  ASSERT_TRUE(ValidateRoutes(reference));

  // Speculative waves of 16 at every thread count above one.
  for (int threads : {1, 2, 8}) {
    srp::SrpPlanner planner(w.matrix);
    BatchResult result;
    const auto routes =
        CommittedSet(planner, queries, threads, /*wave_size=*/16, &result);
    EXPECT_EQ(result.failed, 0) << "threads=" << threads;
    EXPECT_TRUE(ValidateRoutes(routes)) << "threads=" << threads;
    EXPECT_EQ(routes, reference) << "threads=" << threads;
    if (threads > 1) {
      EXPECT_EQ(result.speculated, result.planned);
    } else {
      EXPECT_EQ(result.speculated, 0);  // serial loop, no speculation
    }
  }
}

TEST(ParallelBatchTest, ContendedBatchInvalidatesAndStaysCollisionFree) {
  const layout::Warehouse w =
      layout::GenerateWarehouse(layout::PresetTiny());
  const auto queries = ContendingBatch();
  const int one_wave = static_cast<int>(queries.size());

  srp::SrpPlanner planner(w.matrix);
  BatchResult result;
  const auto routes =
      CommittedSet(planner, queries, /*threads=*/4, one_wave, &result);

  EXPECT_EQ(result.failed, 0);
  EXPECT_TRUE(ValidateRoutes(routes));
  EXPECT_GT(result.speculated, 0);
  // Opposing same-row pairs cannot all keep their snapshot routes.
  EXPECT_GT(result.invalidated, 0);
  EXPECT_GT(planner.stats().SpeculationConflictRate(), 0.0);
  EXPECT_EQ(planner.stats().speculative_invalidated, result.invalidated);
  // Validation runs before the commit, so no loser ever needs retiring,
  // and the stores hold exactly the accepted routes.
  EXPECT_EQ(planner.stats().routes_released, 0);
  EXPECT_EQ(static_cast<std::int64_t>(routes.size()), result.planned);
  EXPECT_EQ(planner.CheckInvariants(), "");
}

TEST(ParallelBatchTest, ParallelResultIndependentOfThreadCount) {
  const layout::Warehouse w =
      layout::GenerateWarehouse(layout::PresetTiny());
  const auto queries = ContendingBatch();

  const int one_wave = static_cast<int>(queries.size());

  srp::SrpPlanner two(w.matrix);
  srp::SrpPlanner eight(w.matrix);
  const auto routes2 = CommittedSet(two, queries, 2, one_wave);
  const auto routes8 = CommittedSet(eight, queries, 8, one_wave);
  EXPECT_EQ(routes2, routes8);
}

TEST(ParallelBatchTest, GridBaselinePlansParallelBatchesSafely) {
  const layout::Warehouse w =
      layout::GenerateWarehouse(layout::PresetTiny());
  const auto queries = ContendingBatch();

  auto serial = baselines::MakePlanner("SAP", w.matrix);
  const auto serial_result = PlanBatch(*serial, 0, queries);

  auto parallel = baselines::MakePlanner("SAP", w.matrix);
  BatchResult result;
  const auto routes = CommittedSet(*parallel, queries, 4,
                                   static_cast<int>(queries.size()), &result);

  EXPECT_TRUE(ValidateRoutes(routes));
  EXPECT_GT(result.speculated, 0);
  EXPECT_EQ(result.planned, serial_result.planned);
  EXPECT_EQ(result.failed, serial_result.failed);
  EXPECT_EQ(routes, serial->committed_routes());
}

TEST(ParallelBatchTest, ExternalPoolIsReusedAcrossBatches) {
  const layout::Warehouse w =
      layout::GenerateWarehouse(layout::PresetTiny());
  const auto queries = ContendingBatch();

  ThreadPool pool(4);
  srp::SrpPlanner pooled(w.matrix);
  srp::SrpPlanner transient(w.matrix);

  BatchPlanOptions options;
  options.threads = 4;
  options.wave_size = static_cast<int>(queries.size());
  options.pool = &pool;
  const auto a = PlanBatch(pooled, 0, queries, options);

  options.pool = nullptr;
  const auto b = PlanBatch(transient, 0, queries, options);

  EXPECT_GT(a.speculated, 0);
  EXPECT_EQ(a.planned, b.planned);
  EXPECT_EQ(pooled.committed_routes(), transient.committed_routes());
  EXPECT_TRUE(ValidateRoutes(pooled.committed_routes()));
}

TEST(ParallelBatchTest, StatsFoldQueriesFromAllWorkers) {
  const layout::Warehouse w =
      layout::GenerateWarehouse(layout::PresetTiny());
  const auto queries = ContendingBatch();

  srp::SrpPlanner planner(w.matrix);
  BatchResult result;
  CommittedSet(planner, queries, 4, static_cast<int>(queries.size()), &result);
  // Every query was attempted speculatively; invalidated ones were
  // re-planned serially on top.
  EXPECT_EQ(planner.stats().queries,
            static_cast<std::int64_t>(queries.size()) + result.invalidated);
  EXPECT_EQ(planner.stats().speculative_routes, result.speculated);
}

TEST(ParallelBatchTest, BatchBelowOneAutoWavePlansSerially) {
  // Four workers make the auto wave max(16, 4 * 4) = 16 queries.
  const auto& w = W1();
  const auto queries = SpreadQueries(w, 16, /*seed=*/29);
  ASSERT_EQ(queries.size(), 16u);

  for (std::size_t count : {15u, 16u}) {
    const std::vector<BatchQuery> batch(queries.begin(),
                                        queries.begin() + count);
    srp::SrpPlanner serial(w.matrix);
    PlanBatch(serial, 0, batch);

    srp::SrpPlanner planner(w.matrix);
    BatchResult result;
    const auto routes =
        CommittedSet(planner, batch, /*threads=*/4, /*wave_size=*/0, &result);
    EXPECT_EQ(result.failed, 0) << "count=" << count;
    EXPECT_EQ(routes, serial.committed_routes()) << "count=" << count;
    if (count < 16) {
      EXPECT_EQ(result.speculated, 0);  // below one wave: the serial loop
      EXPECT_EQ(planner.stats().speculative_routes, 0);
    } else {
      EXPECT_EQ(result.speculated, result.planned);  // one full wave
    }
  }
}

}  // namespace
}  // namespace carp::core
