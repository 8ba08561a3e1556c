// Route lifecycle end-to-end: a multi-day workload through the Simulator
// with retirement on must keep its whole multi-day history collision-free
// while the planner's retained state stays flat instead of accumulating
// the full history of finished routes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "baselines/planner_factory.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "sim/simulator.h"
#include "srp/srp_planner.h"
#include "workload/task_generator.h"

namespace carp::sim {
namespace {

// One day's tasks, arriving from `start` on. Days share one clock and one
// planner, so a day must start no earlier than the previous day's
// makespan: an earlier start would plan behind routes the previous day
// already released, which the ReleaseRoute contract forbids.
std::vector<workload::DeliveryTask> DayTasks(const layout::Warehouse& w,
                                             int day, TimeStep start,
                                             TimeStep day_length, int count) {
  workload::TaskGeneratorOptions opts;
  opts.task_count = count;
  opts.day_length = day_length;
  opts.seed = 40 + day;
  auto tasks = workload::GenerateTasks(
      w, workload::ArrivalProfile::Uniform(), opts);
  for (auto& t : tasks) t.arrival += start;
  return tasks;
}

class LongrunLifecycleTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LongrunLifecycleTest, ThreeDaysBoundedStateCollisionFree) {
  const TimeStep day_length = 400;
  layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetTiny());
  // A tight ACP path-cache budget (ignored by the other tags) so the
  // boundedness bound below covers ACP too: the budget forces LRU
  // eviction well within a day's worth of distinct OD pairs.
  baselines::PlannerBuildOptions build;
  build.acp_cache_budget_bytes = 8192;
  auto planner = baselines::MakePlanner(GetParam(), warehouse.matrix, build);
  ASSERT_NE(planner, nullptr);

  SimulatorOptions options;
  options.retire_routes = true;
  options.prune_every = 256;
  options.prune_slack = 32;
  Simulator sim(warehouse, *planner, options);

  std::vector<std::size_t> end_bytes;
  std::int64_t released = 0;
  TimeStep start = 0;
  for (int day = 0; day < 3; ++day) {
    RunMetrics m = sim.Run(DayTasks(warehouse, day, start, day_length, 30));
    start = std::max(start + day_length, m.makespan);
    EXPECT_EQ(m.finished_tasks, m.total_tasks) << "day " << day;
    EXPECT_TRUE(m.validated);
    EXPECT_TRUE(m.collision_free) << GetParam() << " day " << day;
    EXPECT_GT(m.routes_released, 0) << "day " << day;
    // Every stage route retires once its robot finishes executing it, so
    // nothing is live after the day drains.
    EXPECT_EQ(m.end_live_routes, 0u) << "day " << day;
    end_bytes.push_back(m.end_retained_bytes);
    released += m.routes_released;
  }
  // The acceptance bound: end-of-day-3 retained bytes within 2x
  // end-of-day-1 — flat, not linear in days. This now covers ACP too: its
  // OD-pair path cache is time-independent retained memory, which used to
  // accumulate without bound (the one exemption here) and is now held to
  // a byte budget by LRU eviction like every other retained structure.
  EXPECT_LE(end_bytes[2], 2 * end_bytes[0]) << GetParam();
  EXPECT_EQ(planner->stats().routes_released, released);

  // SRP's release path removes exactly the segments its commits inserted,
  // so a fully drained day leaves the stores empty.
  if (auto* srp = dynamic_cast<srp::SrpPlanner*>(planner.get())) {
    EXPECT_EQ(srp->SegmentCount(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPlanners, LongrunLifecycleTest,
                         ::testing::Values("SAP", "RP", "TWP", "ACP", "SRP",
                                           "SRP-indexed"));

// Retirement composed with speculative batched dispatch: the routes the
// validate-then-commit pass accepts retire through the same path as
// serially planned ones, and the day must still validate.
TEST(LongrunLifecycleBatchedTest, RetirementWithSpeculativeDispatch) {
  const TimeStep day_length = 400;
  layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetTiny());
  auto planner = baselines::MakePlanner("SRP", warehouse.matrix);
  ASSERT_NE(planner, nullptr);

  SimulatorOptions options;
  options.retire_routes = true;
  options.prune_every = 256;
  options.prune_slack = 32;
  options.threads = 2;
  Simulator sim(warehouse, *planner, options);

  TimeStep start = 0;
  for (int day = 0; day < 2; ++day) {
    RunMetrics m = sim.Run(DayTasks(warehouse, day, start, day_length, 30));
    start = std::max(start + day_length, m.makespan);
    EXPECT_EQ(m.finished_tasks, m.total_tasks) << "day " << day;
    EXPECT_TRUE(m.collision_free) << "day " << day;
    EXPECT_EQ(m.end_live_routes, 0u) << "day " << day;
  }
}

}  // namespace
}  // namespace carp::sim
