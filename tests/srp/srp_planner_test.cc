#include "srp/srp_planner.h"

#include <ostream>
#include <string>
#include <vector>

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

// Without it gtest names the instances by a byte dump that includes the
// struct's padding, so the test ids would change from build to build.
void PrintTo(const WorkloadParam& p, std::ostream* os) {
  *os << "{seed=" << p.seed << ", tasks=" << p.tasks
      << ", index=" << p.use_index << ", day=" << p.day_length << "}";
}

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

// The default planner runs the start-time-sorted store of Sec. V-B, not
// the slope index: same routes as both explicit variants, and exactly the
// sorted store's footprint, which is smaller than the index's (the index
// keeps a second, by-line sequence).
TEST(SrpPlannerVariantsTest, DefaultIsTheSortedStore) {
  layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetTiny());
  SrpPlannerOptions sorted_options;
  sorted_options.use_slope_index = false;
  SrpPlannerOptions indexed_options;
  indexed_options.use_slope_index = true;
  SrpPlanner by_default(warehouse.matrix);
  SrpPlanner sorted(warehouse.matrix, sorted_options);
  SrpPlanner indexed(warehouse.matrix, indexed_options);

  workload::TaskGeneratorOptions topts;
  topts.task_count = 60;
  topts.day_length = 300;
  topts.seed = 17;
  const auto tasks = workload::GenerateTasks(
      warehouse, workload::ArrivalProfile::Uniform(), topts);
  const auto queries = workload::FlattenToQueries(warehouse, tasks);
  for (const auto& q : queries) {
    auto r = by_default.PlanRoute(q.emergence, q.origin, q.destination);
    auto rs = sorted.PlanRoute(q.emergence, q.origin, q.destination);
    auto ri = indexed.PlanRoute(q.emergence, q.origin, q.destination);
    ASSERT_EQ(r, rs);
    ASSERT_EQ(r, ri);
  }
  ASSERT_GT(by_default.SegmentCount(), 0u);
  EXPECT_EQ(by_default.RetainedBytes(), sorted.RetainedBytes());
  EXPECT_LT(by_default.RetainedBytes(), indexed.RetainedBytes());
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

// A committed route crosses a -> b between strips at t = 0; a query from
// b to a at t = 0 would naturally take b -> a at the same step, a swap no
// segment store can see (a and b lie in different strips). Both the
// inter-strip search (CrossingTime) and the A* fallback (SegmentOracle)
// must consult the crossing registry and detour instead.
class SrpCrossStripSwapTest : public ::testing::TestWithParam<bool> {
 protected:
  // Row 0 and row 3 are latitudinal strips; columns 1 and 3 are
  // longitudinal aisle strips joining them.
  const core::WarehouseMatrix matrix_ = core::WarehouseMatrix::FromAscii(
      ".....\n"
      "#.#.#\n"
      "#.#.#\n"
      ".....\n");
  const GridCoord a_{0, 1};
  const GridCoord b_{1, 1};
  const core::Route committed_{0, {a_, b_, {2, 1}, {3, 1}, {3, 0}}};
};

TEST_P(SrpCrossStripSwapTest, RefusesOppositeCrossingAtSameStep) {
  const bool force_fallback = GetParam();
  SrpPlannerOptions options;
  // No strip may be settled: every query escalates to the A* fallback.
  if (force_fallback) options.max_strip_expansions = 0;
  SrpPlanner planner(matrix_, options);
  ASSERT_NE(planner.strip_graph().StripOf(a_),
            planner.strip_graph().StripOf(b_));
  planner.CommitRoute(committed_);

  // The natural earliest route is the swap, which the validator rejects.
  const core::Route swap(0, {b_, a_});
  ASSERT_FALSE(RouteSetValidator::IsCollisionFree({committed_, swap}));

  auto route = planner.PlanRoute(0, b_, a_);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(planner.stats().fallbacks, force_fallback ? 1 : 0);
  // With no settle budget the rescue pass cannot run either.
  EXPECT_EQ(planner.stats().FallbacksFor(core::FallbackReason::kSettledCap),
            force_fallback ? 1 : 0);
  EXPECT_EQ(planner.stats().rescues, 0);
  EXPECT_EQ(route->start_time(), 0);
  EXPECT_EQ(route->destination(), a_);
  EXPECT_NE(route->At(1), a_);
  EXPECT_TRUE(route->IsKinematicallyValid(matrix_));
  EXPECT_TRUE(RouteSetValidator::IsCollisionFree({committed_, *route}));
  EXPECT_EQ(planner.CheckInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(
    InterStripAndFallback, SrpCrossStripSwapTest, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool>& info) {
      return info.param ? std::string("Fallback") : std::string("InterStrip");
    });

// A three-row cross aisle (rows 2-4) between the origin row and a
// one-lane spur down to the destination. The short way into the cross
// aisle is its west end; the long way is its east end. Robots parked on
// column 1 of all three rows wall the west end off from the spur:
//
//   row 0  ..o....    o origin (0, 2)
//   row 1  .#####.
//   row 2  .P.....    P parked robots (column 1, rows 2-4)
//   row 3  .P.....
//   row 4  .P.....
//   row 5  ###.###
//   row 6  ###d###    d destination (6, 3)
//
// Alg. 4 with one label per strip settles each cross-aisle row at its
// west entry first, so the east entry is never tried and the first pass
// runs dry. The rescue pass keeps a second entry per row and finds the
// east way round.
class SrpRescueTest : public ::testing::Test {
 protected:
  const core::WarehouseMatrix matrix_ = core::WarehouseMatrix::FromAscii(
      ".......\n"
      ".#####.\n"
      ".......\n"
      ".......\n"
      ".......\n"
      "###.###\n"
      "###.###\n");
  const GridCoord origin_{0, 2};
  const GridCoord destination_{6, 3};

  // Robots parked on `column` of the three cross-aisle rows for t in
  // [0, until].
  static std::vector<core::Route> Wall(std::int32_t column, TimeStep until) {
    std::vector<core::Route> wall;
    for (std::int32_t row = 2; row <= 4; ++row) {
      wall.emplace_back(0, std::vector<GridCoord>(
                               static_cast<std::size_t>(until + 1),
                               GridCoord{row, column}));
    }
    return wall;
  }
};

TEST_F(SrpRescueTest, RescuePassAnswersWhatTheFirstPassCannot) {
  SrpPlanner planner(matrix_);
  for (const core::Route& parked : Wall(1, 80)) planner.CommitRoute(parked);

  auto route = planner.PlanRoute(0, origin_, destination_);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(planner.stats().fallbacks, 0);
  EXPECT_EQ(planner.stats().rescues, 1);
  EXPECT_EQ(route->start_time(), 0);
  EXPECT_EQ(route->destination(), destination_);
  // East way round: 4 + 4 + 3 + 2 steps, no waiting.
  EXPECT_EQ(route->end_time(), 13);
  EXPECT_TRUE(route->IsKinematicallyValid(matrix_));
  EXPECT_TRUE(RouteSetValidator::IsCollisionFree(planner.committed_routes()));
  EXPECT_EQ(planner.CheckInvariants(), "");
}

TEST_F(SrpRescueTest, UnwalledQueryNeedsNoRescue) {
  SrpPlanner planner(matrix_);
  auto route = planner.PlanRoute(0, origin_, destination_);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(planner.stats().rescues, 0);
  EXPECT_EQ(planner.stats().fallbacks, 0);
  EXPECT_EQ(route->end_time(), 11);  // west way round: 2 + 4 + 3 + 2
}

// Both ends walled off until t = 60: the rescue pass runs dry too, and the
// A* fallback waits the walls out.
TEST_F(SrpRescueTest, RescueExhaustedFallsBackToAStar) {
  SrpPlanner planner(matrix_);
  for (std::int32_t column : {1, 5}) {
    for (const core::Route& parked : Wall(column, 60)) {
      planner.CommitRoute(parked);
    }
  }
  auto route = planner.PlanRoute(0, origin_, destination_);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(planner.stats().rescues, 0);
  EXPECT_EQ(planner.stats().fallbacks, 1);
  EXPECT_EQ(
      planner.stats().FallbacksFor(core::FallbackReason::kRescueExhausted), 1);
  EXPECT_TRUE(RouteSetValidator::IsCollisionFree(planner.committed_routes()));
}

// Every FallbackReason is reachable and counted once per fallback.
TEST(SrpFallbackReasonTest, FirstPassExhaustedSkipsTheRescue) {
  // The origin's column strip has two exits, both parked on until t = 60.
  // No strip is ever reached at a second entry, so a rescue pass would
  // repeat the first one; the query goes straight to A*.
  const core::WarehouseMatrix matrix = core::WarehouseMatrix::FromAscii(
      ".....\n"
      "#.#.#\n"
      "#.#.#\n"
      ".....\n");
  SrpPlanner planner(matrix);
  for (GridCoord cell : {GridCoord{0, 1}, GridCoord{3, 1}}) {
    planner.CommitRoute(core::Route(0, std::vector<GridCoord>(61, cell)));
  }
  auto route = planner.PlanRoute(0, {1, 1}, {3, 4});
  ASSERT_TRUE(route.has_value());
  EXPECT_GT(route->end_time(), 60);
  EXPECT_EQ(planner.stats().fallbacks, 1);
  EXPECT_EQ(
      planner.stats().FallbacksFor(core::FallbackReason::kFirstPassExhausted),
      1);
  EXPECT_EQ(planner.stats().rescues, 0);
}

TEST(SrpFallbackReasonTest, FinalLegGiveUp) {
  // The destination is parked on for the whole query horizon, so every
  // entry into its row fails the final leg; ten column strips feed the
  // row, more than the 8 reopenings a pass allows.
  const core::WarehouseMatrix matrix = core::WarehouseMatrix::FromAscii(
      ".....................\n"
      "#.#.#.#.#.#.#.#.#.#.#\n"
      ".....................\n");
  SrpPlannerOptions options;
  options.detour_slack = -1;  // let every column strip reach the row
  options.fallback.horizon = 64;
  SrpPlanner planner(matrix, options);
  const GridCoord destination{2, 10};
  planner.CommitRoute(
      core::Route(0, std::vector<GridCoord>(400, destination)));
  EXPECT_FALSE(planner.PlanRoute(0, {0, 0}, destination).has_value());
  EXPECT_EQ(planner.stats().fallbacks, 1);
  EXPECT_EQ(
      planner.stats().FallbacksFor(core::FallbackReason::kFinalLegGiveUp), 1);
  EXPECT_EQ(planner.stats().failures, 1);
}

TEST(SrpFallbackReasonTest, MergeSumsReasonsAndRescues) {
  core::PlannerStats a;
  core::PlannerStats b;
  for (std::size_t r = 0; r < core::kFallbackReasonCount; ++r) {
    a.fallback_reasons[r] = static_cast<std::int64_t>(r + 1);
    b.fallback_reasons[r] = static_cast<std::int64_t>(10 * (r + 1));
  }
  a.rescues = 2;
  b.rescues = 5;
  a.Merge(b);
  for (std::size_t r = 0; r < core::kFallbackReasonCount; ++r) {
    EXPECT_EQ(a.fallback_reasons[r], static_cast<std::int64_t>(11 * (r + 1)));
  }
  EXPECT_EQ(a.rescues, 7);
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
