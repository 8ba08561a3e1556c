#include "srp/srp_planner.h"

#include <ostream>

#include <gtest/gtest.h>

#include "core/collision.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "workload/request_stream.h"
#include "workload/task_generator.h"

namespace carp::srp {
namespace {

using core::RouteSetValidator;

class SrpPlannerTest : public ::testing::Test {
 protected:
  layout::Warehouse warehouse_ =
      layout::GenerateWarehouse(layout::PresetTiny());
};

TEST_F(SrpPlannerTest, SingleRouteOnEmptyWarehouseIsShortest) {
  SrpPlanner planner(warehouse_.matrix);
  // Both endpoints on the (open) margin ring rows.
  const GridCoord origin{0, 0};
  const GridCoord dest{0, 20};
  auto route = planner.PlanRoute(0, origin, dest);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->length(), ManhattanDistance(origin, dest) + 1);
  EXPECT_TRUE(route->IsKinematicallyValid(warehouse_.matrix));
}

TEST_F(SrpPlannerTest, CrossWarehouseRouteValid) {
  SrpPlanner planner(warehouse_.matrix);
  const GridCoord origin{0, 0};
  const GridCoord dest{warehouse_.matrix.height() - 1,
                       warehouse_.matrix.width() - 1};
  auto route = planner.PlanRoute(0, origin, dest);
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(route->IsKinematicallyValid(warehouse_.matrix));
  EXPECT_EQ(route->origin(), origin);
  EXPECT_EQ(route->destination(), dest);
}

TEST_F(SrpPlannerTest, RejectsRackEndpoints) {
  SrpPlanner planner(warehouse_.matrix);
  ASSERT_FALSE(warehouse_.racks.empty());
  auto route = planner.PlanRoute(0, {0, 0}, warehouse_.racks[0]);
  EXPECT_FALSE(route.has_value());
  EXPECT_EQ(planner.stats().failures, 1);
}

TEST_F(SrpPlannerTest, SameCellQueryYieldsSingleCellRoute) {
  SrpPlanner planner(warehouse_.matrix);
  auto route = planner.PlanRoute(5, {0, 3}, {0, 3});
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->length(), 1);
  EXPECT_EQ(route->start_time(), 5);
}

TEST_F(SrpPlannerTest, DispatchDelayWhenOriginBusy) {
  SrpPlanner planner(warehouse_.matrix);
  // Park a route across cell (0,5) at t=0..10 by planning a slow walk.
  auto blocker = planner.PlanRoute(0, {0, 5}, {0, 5});
  ASSERT_TRUE(blocker.has_value());
  // A new query from the same cell at the same instant must start later.
  auto route = planner.PlanRoute(0, {0, 5}, {0, 9});
  ASSERT_TRUE(route.has_value());
  EXPECT_GT(route->start_time(), 0);
  EXPECT_TRUE(RouteSetValidator::IsCollisionFree(
      planner.committed_routes()));
}

TEST_F(SrpPlannerTest, ResetClearsState) {
  SrpPlanner planner(warehouse_.matrix);
  planner.PlanRoute(0, {0, 0}, {0, 9});
  EXPECT_EQ(planner.committed_routes().size(), 1u);
  EXPECT_GT(planner.SegmentCount(), 0u);
  planner.Reset();
  EXPECT_TRUE(planner.committed_routes().empty());
  EXPECT_EQ(planner.SegmentCount(), 0u);
  EXPECT_EQ(planner.stats().queries, 0);
}

TEST_F(SrpPlannerTest, TimeBreakdownAccumulates) {
  SrpPlannerOptions options;
  options.enable_time_breakdown = true;
  SrpPlanner planner(warehouse_.matrix, options);
  for (int i = 0; i < 10; ++i) {
    planner.PlanRoute(i, {0, 0}, {39, 29});
  }
  const SrpTimeBreakdown b = planner.time_breakdown();
  EXPECT_GT(b.intra_seconds + b.inter_seconds + b.conversion_seconds, 0.0);
}

TEST_F(SrpPlannerTest, RetainedBytesTrackSegments) {
  SrpPlanner planner(warehouse_.matrix);
  const std::size_t before = planner.RetainedBytes();
  for (int i = 0; i < 20; ++i) {
    planner.PlanRoute(i * 3, {0, 0}, {39, 29});
  }
  EXPECT_GT(planner.RetainedBytes(), before);
}

// The central correctness property (Def. 3): whatever the workload, the
// committed route set is collision-free. Parameterized over seeds, store
// variants and congestion levels.
struct WorkloadParam {
  int seed;
  int tasks;
  bool use_index;
  TimeStep day_length;
};

class SrpWorkloadTest : public ::testing::TestWithParam<WorkloadParam> {};

TEST_P(SrpWorkloadTest, CommittedRoutesAlwaysCollisionFree) {
  const WorkloadParam& p = GetParam();
  layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetTiny());
  SrpPlannerOptions options;
  options.use_slope_index = p.use_index;
  SrpPlanner planner(warehouse.matrix, options);

  workload::TaskGeneratorOptions topts;
  topts.task_count = p.tasks;
  topts.day_length = p.day_length;
  topts.seed = static_cast<std::uint64_t>(p.seed);
  const auto tasks = workload::GenerateTasks(
      warehouse, workload::ArrivalProfile::Uniform(), topts);
  const auto queries = workload::FlattenToQueries(warehouse, tasks);

  int planned = 0;
  for (const auto& q : queries) {
    auto route = planner.PlanRoute(q.emergence, q.origin, q.destination);
    if (route.has_value()) {
      ++planned;
      EXPECT_TRUE(route->IsKinematicallyValid(warehouse.matrix));
    }
  }
  EXPECT_GT(planned, static_cast<int>(queries.size() * 9) / 10);
  EXPECT_TRUE(RouteSetValidator::IsCollisionFree(planner.committed_routes()))
      << "seed=" << p.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SrpWorkloadTest,
    ::testing::Values(WorkloadParam{1, 40, true, 200},
                      WorkloadParam{2, 40, true, 100},
                      WorkloadParam{3, 80, true, 400},
                      WorkloadParam{4, 25, true, 50},   // heavy congestion
                      WorkloadParam{5, 40, false, 200},
                      WorkloadParam{6, 25, false, 50},
                      WorkloadParam{7, 120, true, 1000},
                      WorkloadParam{8, 60, false, 300}));

// Every option combination must preserve the collision-free invariant.
struct OptionParam {
  bool static_first;
  bool goal_heuristic;
  double weight;
  std::int64_t slack;
};

// The default byte dump would print the struct's padding, so the test's
// name would change from run to run.
void PrintTo(const OptionParam& p, std::ostream* os) {
  *os << "{static_first=" << p.static_first
      << ", goal=" << p.goal_heuristic << ", w=" << p.weight
      << ", slack=" << p.slack << "}";
}

class SrpOptionSweepTest : public ::testing::TestWithParam<OptionParam> {};

TEST_P(SrpOptionSweepTest, OptionsPreserveSafety) {
  const OptionParam& p = GetParam();
  layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetTiny());
  SrpPlannerOptions options;
  options.use_static_first = p.static_first;
  options.use_goal_heuristic = p.goal_heuristic;
  options.heuristic_weight = p.weight;
  options.detour_slack = p.slack;
  SrpPlanner planner(warehouse.matrix, options);

  workload::TaskGeneratorOptions topts;
  topts.task_count = 35;
  topts.day_length = 120;
  topts.seed = 71;
  const auto tasks = workload::GenerateTasks(
      warehouse, workload::ArrivalProfile::Uniform(), topts);
  const auto queries = workload::FlattenToQueries(warehouse, tasks);
  int planned = 0;
  for (const auto& q : queries) {
    auto route = planner.PlanRoute(q.emergence, q.origin, q.destination);
    if (route.has_value()) {
      ++planned;
      EXPECT_TRUE(route->IsKinematicallyValid(warehouse.matrix));
    }
  }
  EXPECT_GT(planned, static_cast<int>(queries.size() * 9) / 10);
  EXPECT_TRUE(
      RouteSetValidator::IsCollisionFree(planner.committed_routes()));
}

INSTANTIATE_TEST_SUITE_P(
    Options, SrpOptionSweepTest,
    ::testing::Values(OptionParam{false, true, 1.25, 6},   // defaults
                      OptionParam{true, true, 1.25, 6},    // static-first
                      OptionParam{false, false, 1.0, -1},  // pure Dijkstra
                      OptionParam{false, true, 1.0, -1},   // admissible A*
                      OptionParam{false, true, 2.0, 3},    // tight + greedy
                      OptionParam{true, false, 1.0, -1}));

TEST(SrpStaticFirstTest, UsesStaticChainsWhenUncontested) {
  layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetTiny());
  SrpPlannerOptions options;
  options.use_static_first = true;
  SrpPlanner planner(warehouse.matrix, options);
  // Far-apart emergence times: no congestion, so every query should go
  // through the probe-free static chain.
  for (int i = 0; i < 10; ++i) {
    auto route = planner.PlanRoute(i * 1000, {0, 0}, {39, 29});
    ASSERT_TRUE(route.has_value());
  }
  EXPECT_EQ(planner.stats().static_path_hits, 10);
  EXPECT_TRUE(
      RouteSetValidator::IsCollisionFree(planner.committed_routes()));
}

TEST(SrpPlannerVariantsTest, IndexAndNaiveProduceIdenticalRoutes) {
  // The slope index is purely an accelerator: identical query streams must
  // yield identical routes.
  layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetTiny());
  SrpPlannerOptions with_index;
  with_index.use_slope_index = true;
  SrpPlannerOptions without_index;
  without_index.use_slope_index = false;
  SrpPlanner a(warehouse.matrix, with_index);
  SrpPlanner b(warehouse.matrix, without_index);

  workload::TaskGeneratorOptions topts;
  topts.task_count = 60;
  topts.day_length = 300;
  topts.seed = 99;
  const auto tasks = workload::GenerateTasks(
      warehouse, workload::ArrivalProfile::Uniform(), topts);
  const auto queries = workload::FlattenToQueries(warehouse, tasks);
  for (const auto& q : queries) {
    auto ra = a.PlanRoute(q.emergence, q.origin, q.destination);
    auto rb = b.PlanRoute(q.emergence, q.origin, q.destination);
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (ra.has_value()) {
      EXPECT_EQ(*ra, *rb);
    }
  }
}

TEST(SrpPlannerFallbackTest, FallbacksAreRare) {
  layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetSmall());
  SrpPlanner planner(warehouse.matrix);
  workload::TaskGeneratorOptions topts;
  topts.task_count = 150;
  topts.day_length = 1500;
  topts.seed = 5;
  const auto tasks = workload::GenerateTasks(
      warehouse, workload::ArrivalProfile::Uniform(), topts);
  const auto queries = workload::FlattenToQueries(warehouse, tasks);
  for (const auto& q : queries) {
    planner.PlanRoute(q.emergence, q.origin, q.destination);
  }
  // The paper reports ~1e-5; we allow a generous margin on a tiny map.
  EXPECT_LT(planner.stats().fallbacks, planner.stats().queries / 20);
  EXPECT_TRUE(
      RouteSetValidator::IsCollisionFree(planner.committed_routes()));
}

TEST(SrpSpeculationTest, QueryWithoutCommitLeavesPlannerUntouched) {
  layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetTiny());
  SrpPlanner planner(warehouse.matrix);
  // Commit some background traffic, then snapshot the committed state.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(planner.PlanRoute(i, {0, i}, {39, 29 - i}).has_value());
  }
  const std::size_t segments = planner.SegmentCount();
  const std::size_t retained = planner.RetainedBytes();
  const std::size_t committed = planner.committed_routes().size();

  ASSERT_TRUE(planner.SupportsSpeculation());
  auto context = planner.MakeQueryContext();
  ASSERT_NE(context, nullptr);
  auto speculative = planner.QueryRoute(*context, 0, {1, 0}, {39, 20});
  ASSERT_TRUE(speculative.has_value());

  // Pure query: no segments, no bytes, no routes committed.
  EXPECT_EQ(planner.SegmentCount(), segments);
  EXPECT_EQ(planner.RetainedBytes(), retained);
  EXPECT_EQ(planner.committed_routes().size(), committed);

  // Subsequent serial planning is unaffected by the uncommitted query: a
  // twin planner fed only the committed traffic produces the same route.
  SrpPlanner twin(warehouse.matrix);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(twin.PlanRoute(i, {0, i}, {39, 29 - i}).has_value());
  }
  auto after = planner.PlanRoute(10, {0, 20}, {39, 0});
  auto twin_after = twin.PlanRoute(10, {0, 20}, {39, 0});
  ASSERT_TRUE(after.has_value());
  ASSERT_TRUE(twin_after.has_value());
  EXPECT_EQ(*after, *twin_after);
}

TEST(SrpSpeculationTest, QueryMatchesSerialAgainstSameSnapshot) {
  layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetTiny());
  SrpPlanner planner(warehouse.matrix);
  SrpPlanner reference(warehouse.matrix);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(planner.PlanRoute(i, {0, i}, {39, 29 - i}).has_value());
    ASSERT_TRUE(reference.PlanRoute(i, {0, i}, {39, 29 - i}).has_value());
  }
  auto context = planner.MakeQueryContext();
  auto speculative = planner.QueryRoute(*context, 6, {1, 0}, {39, 20});
  auto serial = reference.PlanRoute(6, {1, 0}, {39, 20});
  ASSERT_TRUE(speculative.has_value());
  ASSERT_TRUE(serial.has_value());
  EXPECT_EQ(*speculative, *serial);
}

TEST(SrpSpeculationTest, CommitRouteMatchesSerialCommit) {
  layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetTiny());
  SrpPlanner split(warehouse.matrix);
  SrpPlanner serial(warehouse.matrix);

  auto context = split.MakeQueryContext();
  auto route = split.QueryRoute(*context, 0, {0, 0}, {39, 29});
  ASSERT_TRUE(route.has_value());
  split.CommitRoute(*route);
  split.AbsorbQueryContext(*context);

  ASSERT_TRUE(serial.PlanRoute(0, {0, 0}, {39, 29}).has_value());

  EXPECT_EQ(split.committed_routes(), serial.committed_routes());
  EXPECT_EQ(split.SegmentCount(), serial.SegmentCount());
  // The committed state constrains later queries identically.
  auto a = split.PlanRoute(1, {0, 5}, {39, 20});
  auto b = serial.PlanRoute(1, {0, 5}, {39, 20});
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
}

TEST(SrpSpeculationTest, AbsorbFoldsContextStatsOnce) {
  layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetTiny());
  SrpPlanner planner(warehouse.matrix);
  auto context = planner.MakeQueryContext();
  ASSERT_TRUE(
      planner.QueryRoute(*context, 0, {0, 0}, {39, 29}).has_value());
  EXPECT_EQ(planner.stats().queries, 0);
  planner.AbsorbQueryContext(*context);
  EXPECT_EQ(planner.stats().queries, 1);
  planner.AbsorbQueryContext(*context);  // counters were reset: no-op
  EXPECT_EQ(planner.stats().queries, 1);
}

TEST(SrpOptionsTest, CallerOptionsAreNeverMutated) {
  layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetTiny());
  SrpPlannerOptions options;
  options.fallback.horizon = 0;  // "derive from the warehouse"
  SrpPlanner derived(warehouse.matrix, options);
  EXPECT_EQ(derived.options().fallback.horizon, 0);
  EXPECT_GE(derived.effective_fallback_horizon(),
            4 * (warehouse.matrix.height() + warehouse.matrix.width()));

  options.fallback.horizon = 7;  // tiny caller-chosen horizon
  SrpPlanner floored(warehouse.matrix, options);
  EXPECT_EQ(floored.options().fallback.horizon, 7);
  EXPECT_GE(floored.effective_fallback_horizon(),
            4 * (warehouse.matrix.height() + warehouse.matrix.width()));
}

}  // namespace
}  // namespace carp::srp
