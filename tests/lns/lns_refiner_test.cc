// Anytime LNS refiner (ISSUE 8 tentpole; DESIGN.md §2i): cost improvement,
// collision-freedom of the refined set, rejected-iteration no-ops, and the
// failed-repair rollback contract checked bit-identically against a twin
// planner that was never touched by the refiner.

#include "lns/lns_refiner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/collision.h"
#include "core/planner.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "srp/srp_planner.h"

namespace carp::lns {
namespace {

const layout::Warehouse& Tiny() {
  static auto* w =
      new layout::Warehouse(layout::GenerateWarehouse(layout::PresetTiny()));
  return *w;
}

std::int64_t Manhattan(GridCoord a, GridCoord b) {
  return std::abs(static_cast<std::int64_t>(a.row) - b.row) +
         std::abs(static_cast<std::int64_t>(a.col) - b.col);
}

// A congested funnel (the micro_lns workload scaled down): heterogeneous
// requests from the racks nearest one picker, staggered releases, planned
// first-feasible in submission order. The heterogeneity and the shared
// corridor region both matter — with identical OD pairs the greedy total
// is order-invariant and LNS has nothing to improve.
std::vector<LnsCandidate> PlanBurst(core::Planner& planner, int count) {
  const layout::Warehouse& w = Tiny();
  const GridCoord anchor = w.pickers.front();
  std::vector<GridCoord> racks = w.rack_access;
  std::sort(racks.begin(), racks.end(), [&](GridCoord a, GridCoord b) {
    const std::int64_t da = Manhattan(a, anchor), db = Manhattan(b, anchor);
    return da != db ? da < db : (a.row != b.row ? a.row < b.row
                                                : a.col < b.col);
  });
  const std::size_t pool = std::min<std::size_t>(16, racks.size());
  std::vector<LnsCandidate> live;
  for (int i = 0; i < count; ++i) {
    const GridCoord origin = racks[static_cast<std::size_t>(i * 3) % pool];
    const GridCoord dest =
        w.pickers[static_cast<std::size_t>(i) % std::min<std::size_t>(
                                                    2, w.pickers.size())];
    // Later releases are committed first (admission by id, not by release
    // time), so first-feasible interleaves badly and real slack exists
    // for the refiner to claw back.
    const TimeStep release = 3 - (i % 4);
    auto route = planner.PlanRoute(release, origin, dest);
    if (!route.has_value()) continue;
    live.push_back({*route, /*emerge=*/release});
  }
  return live;
}

std::vector<core::Route> RoutesOf(const std::vector<LnsCandidate>& live) {
  std::vector<core::Route> routes;
  routes.reserve(live.size());
  for (const LnsCandidate& c : live) routes.push_back(c.route);
  return routes;
}

std::int64_t TotalCost(const core::Planner& planner,
                       const std::vector<LnsCandidate>& live) {
  std::int64_t total = 0;
  for (const LnsCandidate& c : live) total += planner.RouteCost(c.route);
  return total;
}

TEST(LnsRefinerTest, SerialRefinementImprovesCostCollisionFree) {
  srp::SrpPlanner planner(Tiny().matrix);
  std::vector<LnsCandidate> live = PlanBurst(planner, 30);
  ASSERT_GE(live.size(), 8u);

  const std::int64_t base_cost = TotalCost(planner, live);
  LnsOptions options;
  options.neighborhood = 6;
  options.seed = 11;
  LnsRefiner refiner(planner, options);

  std::int64_t last_cost = base_cost;
  for (int i = 0; i < 200 && refiner.stats().accepted < 3; ++i) {
    if (refiner.Iterate(live)) {
      const std::int64_t cost = TotalCost(planner, live);
      EXPECT_LT(cost, last_cost);  // accepted repairs strictly improve
      last_cost = cost;
    }
  }
  ASSERT_GT(refiner.stats().accepted, 0);
  EXPECT_EQ(base_cost - last_cost, refiner.stats().cost_improvement);
  EXPECT_TRUE(core::ValidateRoutes(RoutesOf(live)));
  EXPECT_EQ(planner.CheckInvariants(), "");
}

TEST(LnsRefinerTest, RejectedIterationIsFingerprintNoOp) {
  srp::SrpPlanner planner(Tiny().matrix);
  std::vector<LnsCandidate> live = PlanBurst(planner, 12);
  ASSERT_GE(live.size(), 4u);

  LnsOptions options;
  options.neighborhood = 4;
  options.seed = 3;
  LnsRefiner refiner(planner, options);

  int rejected_seen = 0;
  for (int i = 0; i < 120 && rejected_seen < 5; ++i) {
    const std::uint64_t before = planner.StateFingerprint();
    if (!refiner.Iterate(live)) {
      EXPECT_EQ(planner.StateFingerprint(), before) << "iteration " << i;
      ++rejected_seen;
    }
  }
  EXPECT_GT(rejected_seen, 0);
}

TEST(LnsRefinerTest, EveryPinnedPolicyKeepsInvariants) {
  for (const NeighborhoodPolicy policy :
       {NeighborhoodPolicy::kRandom, NeighborhoodPolicy::kConflictHotspot,
        NeighborhoodPolicy::kStripLocality}) {
    srp::SrpPlanner planner(Tiny().matrix);
    std::vector<LnsCandidate> live = PlanBurst(planner, 12);
    ASSERT_GE(live.size(), 4u);

    LnsOptions options;
    options.neighborhood = 5;
    options.seed = 29;
    options.policy = policy;
    LnsRefiner refiner(planner, options);
    for (int i = 0; i < 40; ++i) refiner.Iterate(live);

    EXPECT_EQ(refiner.stats().iterations, 40)
        << static_cast<int>(policy);
    EXPECT_TRUE(core::ValidateRoutes(RoutesOf(live)))
        << static_cast<int>(policy);
    EXPECT_EQ(planner.CheckInvariants(), "") << static_cast<int>(policy);
  }
}

TEST(LnsRefinerTest, PooledSpeculativeShardedPathKeepsInvariants) {
  srp::SrpPlanner planner(Tiny().matrix);
  std::vector<LnsCandidate> live = PlanBurst(planner, 14);
  ASSERT_GE(live.size(), 4u);

  ThreadPool pool(2);
  LnsOptions options;
  options.neighborhood = 6;
  options.seed = 17;
  options.pool = &pool;
  LnsRefiner refiner(planner, options);

  for (int i = 0; i < 60; ++i) {
    const std::uint64_t before = planner.StateFingerprint();
    if (!refiner.Iterate(live)) {
      EXPECT_EQ(planner.StateFingerprint(), before) << "iteration " << i;
    }
  }
  EXPECT_GT(refiner.stats().speculative_repairs, 0);
  EXPECT_TRUE(core::ValidateRoutes(RoutesOf(live)));
  EXPECT_EQ(planner.CheckInvariants(), "");
}

// Models an operator-blocked corridor: once tripped, every replan is
// infeasible, so the repair phase of the next iteration must fail and the
// refiner must roll the committed state back to exactly what it was.
class BlockedCorridorPlanner final : public core::Planner {
 public:
  explicit BlockedCorridorPlanner(srp::SrpPlanner& inner) : inner_(inner) {}

  std::optional<core::Route> PlanRoute(TimeStep now, GridCoord origin,
                                       GridCoord destination) override {
    if (blocked_) return std::nullopt;
    return inner_.PlanRoute(now, origin, destination);
  }
  void CommitRoute(const core::Route& route) override {
    inner_.CommitRoute(route);
  }
  bool ReleaseRoute(const core::Route& route) override {
    return inner_.ReleaseRoute(route);
  }
  std::uint64_t StateFingerprint() const override {
    return inner_.StateFingerprint();
  }
  std::string_view name() const override { return "blocked-corridor"; }
  void Reset() override { inner_.Reset(); }
  std::size_t RetainedBytes() const override {
    return inner_.RetainedBytes();
  }

  void Block() { blocked_ = true; }

 private:
  srp::SrpPlanner& inner_;
  bool blocked_ = false;
};

TEST(LnsRefinerTest, FailedRepairRollsBackBitIdenticalToUntouchedTwin) {
  srp::SrpPlanner planner(Tiny().matrix);
  BlockedCorridorPlanner blocked(planner);
  std::vector<LnsCandidate> live = PlanBurst(blocked, 12);
  ASSERT_GE(live.size(), 4u);

  // Twin: replays the exact committed routes and is never refined. The SRP
  // commit path re-derives the canonical decomposition, so the twin is the
  // ground truth for "the rollback was a true no-op".
  srp::SrpPlanner twin(Tiny().matrix);
  for (const LnsCandidate& c : live) twin.CommitRoute(c.route);
  ASSERT_EQ(planner.StateFingerprint(), twin.StateFingerprint());

  LnsOptions options;
  options.neighborhood = 5;
  options.seed = 41;
  LnsRefiner refiner(blocked, options);

  blocked.Block();
  const std::vector<core::Route> before = RoutesOf(live);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(refiner.Iterate(live));  // every repair is infeasible
  }
  EXPECT_EQ(refiner.stats().failed_repairs, 10);
  EXPECT_EQ(refiner.stats().rollbacks, 10);
  EXPECT_EQ(refiner.stats().accepted, 0);

  // Bit-identity: fingerprint, segment census, and the candidates
  // themselves all match the never-touched twin.
  EXPECT_EQ(planner.StateFingerprint(), twin.StateFingerprint());
  EXPECT_EQ(planner.SegmentCount(), twin.SegmentCount());
  EXPECT_EQ(planner.CheckInvariants(), "");
  ASSERT_EQ(live.size(), before.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].route.cells(), before[i].cells()) << i;
  }
}

}  // namespace
}  // namespace carp::lns
