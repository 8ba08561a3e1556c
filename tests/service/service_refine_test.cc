// Background refinement under the service front-end (ISSUE 8 tentpole;
// DESIGN.md §2i): idle ticks spend CPU on LNS repairs of not-yet-started
// live routes, the archive stays collision-free, refinement never loses a
// request, and turning refinement off reproduces the unrefined schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <vector>

#include "core/collision.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "service/planner_service.h"
#include "srp/srp_planner.h"

namespace carp::service {
namespace {

const layout::Warehouse& Tiny() {
  static auto* w =
      new layout::Warehouse(layout::GenerateWarehouse(layout::PresetTiny()));
  return *w;
}

// A bursty funnel stream with gaps between waves: every wave floods one
// picker area from a pool of just three racks, so origin contention
// forces dispatch delays that push start times past the wave instant
// (those not-yet-started routes are what an idle-tick refinement pass may
// touch), and the gaps give RunUntilDrained idle ticks to spend on it.
std::vector<PlanRequest> MakeBurstyRequests(int count, TimeStep gap,
                                            std::uint64_t seed) {
  const layout::Warehouse& w = Tiny();
  const GridCoord anchor = w.pickers.front();
  std::vector<GridCoord> racks = w.rack_access;
  std::sort(racks.begin(), racks.end(), [&](GridCoord a, GridCoord b) {
    const auto da = std::abs(static_cast<std::int64_t>(a.row) - anchor.row) +
                    std::abs(static_cast<std::int64_t>(a.col) - anchor.col);
    const auto db = std::abs(static_cast<std::int64_t>(b.row) - anchor.row) +
                    std::abs(static_cast<std::int64_t>(b.col) - anchor.col);
    return da != db ? da < db
                    : (a.row != b.row ? a.row < b.row : a.col < b.col);
  });
  std::mt19937_64 rng(seed);
  std::vector<PlanRequest> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    PlanRequest r;
    r.id = i;
    r.release_time = static_cast<TimeStep>(i / 6) * gap;
    r.origin = racks[rng() % std::min<std::size_t>(3, racks.size())];
    r.destination = w.pickers[rng() % std::min<std::size_t>(
                                          2, w.pickers.size())];
    requests.push_back(r);
  }
  return requests;
}

TEST(ServiceRefineTest, RefinementImprovesWithoutLosingRequests) {
  srp::SrpPlanner planner(Tiny().matrix);
  ServiceOptions options;
  options.threads = 2;
  options.refine = true;
  options.refine_neighborhood = 6;
  options.refine_iterations_per_tick = 4;
  PlannerService svc(planner, options);

  const auto requests = MakeBurstyRequests(30, /*gap=*/40, /*seed=*/5);
  for (const PlanRequest& r : requests) svc.Submit(r);
  svc.RunUntilDrained();

  EXPECT_EQ(svc.metrics().admitted, 30);
  EXPECT_EQ(svc.metrics().planned + svc.metrics().failed, 30);
  EXPECT_GT(svc.metrics().refine_iterations, 0);
  EXPECT_GE(svc.metrics().refine_cost_improvement, 0);
  EXPECT_TRUE(core::ValidateRoutes(svc.archive()));
  EXPECT_EQ(planner.CheckInvariants(), "");
}

TEST(ServiceRefineTest, RefineOffMatchesRefineNeverAccepted) {
  // Refinement only ever replaces routes that have not started executing,
  // and only for a strict cost drop — so the refined run must plan the
  // same number of requests as the unrefined run and end at a total cost
  // no worse.
  auto run = [](bool refine) {
    srp::SrpPlanner planner(Tiny().matrix);
    ServiceOptions options;
    options.refine = refine;
    options.refine_neighborhood = 6;
    options.refine_iterations_per_tick = 4;
    PlannerService svc(planner, options);
    for (const PlanRequest& r : MakeBurstyRequests(30, 40, 5)) svc.Submit(r);
    svc.RunUntilDrained();
    std::int64_t total = 0;
    for (const core::Route& route : svc.archive()) {
      total += planner.RouteCost(route);
    }
    return std::pair<std::int64_t, std::int64_t>(svc.metrics().planned,
                                                 total);
  };

  const auto [planned_off, cost_off] = run(false);
  const auto [planned_on, cost_on] = run(true);
  EXPECT_EQ(planned_on, planned_off);
  EXPECT_LE(cost_on, cost_off);
}

TEST(ServiceRefineTest, ShardedRecommitUnderThreadsStaysCoherent) {
  // Pooled speculative repairs with recommits on the service thread (the
  // TSan job runs this test) must leave the planner's invariants intact
  // after a drained run.
  srp::SrpPlanner planner(Tiny().matrix);
  ServiceOptions options;
  options.threads = 3;
  options.refine = true;
  options.refine_neighborhood = 5;
  options.refine_iterations_per_tick = 3;
  PlannerService svc(planner, options);

  for (const PlanRequest& r : MakeBurstyRequests(36, 32, 9)) svc.Submit(r);
  svc.RunUntilDrained();

  EXPECT_EQ(svc.metrics().admitted, 36);
  EXPECT_EQ(svc.metrics().planned + svc.metrics().failed, 36);
  EXPECT_GT(svc.metrics().refine_iterations, 0);
  EXPECT_TRUE(core::ValidateRoutes(svc.archive()));
  EXPECT_EQ(planner.CheckInvariants(), "");
}

}  // namespace
}  // namespace carp::service
