#include "core/spacetime_astar.h"

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/collision.h"
#include "core/reservation_table.h"

namespace carp::core {
namespace {

class SpaceTimeAStarTest : public ::testing::Test {
 protected:
  WarehouseMatrix matrix_{8, 8};
  ReservationTable table_;
  SpaceTimeAStarOptions options_;
};

TEST_F(SpaceTimeAStarTest, UnobstructedRouteIsManhattanOptimal) {
  SpaceTimeAStar astar(matrix_);
  auto route = astar.Plan(table_, 3, {0, 0}, {5, 4}, options_);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->start_time(), 3);
  EXPECT_EQ(route->length(), ManhattanDistance({0, 0}, {5, 4}) + 1);
  EXPECT_TRUE(route->IsKinematicallyValid(matrix_));
}

TEST_F(SpaceTimeAStarTest, TrivialSameCellQuery) {
  SpaceTimeAStar astar(matrix_);
  auto route = astar.Plan(table_, 0, {2, 2}, {2, 2}, options_);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->length(), 1);
}

TEST_F(SpaceTimeAStarTest, WaitsOutACrossingRoute) {
  // Another robot crosses our corridor; the plan must avoid it, possibly
  // by waiting, and the combined set must be collision-free.
  Route other(0, {{1, 2}, {0, 2}, {0, 2}, {0, 2}, {0, 2}});
  table_.Reserve(1, other);
  SpaceTimeAStar astar(matrix_);
  auto route = astar.Plan(table_, 0, {0, 0}, {0, 5}, options_);
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(RouteSetValidator::IsCollisionFree({other, *route}));
}

TEST_F(SpaceTimeAStarTest, AvoidsHeadOnSwap) {
  // A robot travels right-to-left along row 0; we travel left-to-right.
  Route other(0, {{0, 5}, {0, 4}, {0, 3}, {0, 2}, {0, 1}, {0, 0}});
  table_.Reserve(1, other);
  SpaceTimeAStar astar(matrix_);
  auto route = astar.Plan(table_, 0, {0, 0}, {0, 5}, options_);
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(RouteSetValidator::IsCollisionFree({other, *route}));
}

TEST_F(SpaceTimeAStarTest, BlockedOriginReturnsNullopt) {
  table_.Reserve(1, Route(0, {{0, 0}, {0, 0}}));
  SpaceTimeAStar astar(matrix_);
  EXPECT_FALSE(astar.Plan(table_, 0, {0, 0}, {3, 3}, options_).has_value());
}

TEST_F(SpaceTimeAStarTest, HorizonBoundsSearch) {
  options_.horizon = 3;
  SpaceTimeAStar astar(matrix_);
  EXPECT_FALSE(astar.Plan(table_, 0, {0, 0}, {7, 7}, options_).has_value());
  options_.horizon = 14;
  EXPECT_TRUE(astar.Plan(table_, 0, {0, 0}, {7, 7}, options_).has_value());
}

TEST_F(SpaceTimeAStarTest, ExpansionBudgetAborts) {
  options_.max_expansions = 2;
  SpaceTimeAStar astar(matrix_);
  EXPECT_FALSE(astar.Plan(table_, 0, {0, 0}, {7, 7}, options_).has_value());
  EXPECT_GT(astar.last_stats().expanded, 0);
}

TEST_F(SpaceTimeAStarTest, WindowLimitsCollisionAwareness) {
  // A blocking robot parks at (0,3) from t=10 on, far beyond the window:
  // the windowed search ignores it (TWP semantics).
  std::vector<GridCoord> park(20, GridCoord{0, 3});
  table_.Reserve(1, Route(10, park));
  options_.window = 2;
  SpaceTimeAStar astar(matrix_);
  auto route = astar.Plan(table_, 9, {0, 0}, {0, 5}, options_);
  ASSERT_TRUE(route.has_value());
  // It walks straight through the parked robot (outside the window).
  EXPECT_EQ(route->length(), 6);
}

TEST_F(SpaceTimeAStarTest, RackEndpointsNeedFlag) {
  matrix_.SetRack({4, 4}, true);
  SpaceTimeAStar astar(matrix_);
  EXPECT_FALSE(astar.Plan(table_, 0, {0, 0}, {4, 4}, options_).has_value());
  options_.allow_endpoint_racks = true;
  auto route = astar.Plan(table_, 0, {0, 0}, {4, 4}, options_);
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(route->IsKinematicallyValid(matrix_, true));
}

TEST_F(SpaceTimeAStarTest, RacksBlockIntermediateCells) {
  // Build a wall; route must detour.
  for (std::int32_t i = 0; i < 7; ++i) matrix_.SetRack({i, 4}, true);
  SpaceTimeAStar astar(matrix_);
  auto route = astar.Plan(table_, 0, {0, 0}, {0, 7}, options_);
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(route->IsKinematicallyValid(matrix_));
  EXPECT_GT(route->length(), ManhattanDistance({0, 0}, {0, 7}) + 1);
}

TEST_F(SpaceTimeAStarTest, ManyRobotsDenseCorridorAllSafe) {
  // Plan 8 robots one at a time through the same corridor; all routes must
  // be mutually collision-free (the SAP planning principle).
  SpaceTimeAStar astar(matrix_);
  std::vector<Route> routes;
  for (int k = 0; k < 8; ++k) {
    const GridCoord origin{static_cast<std::int32_t>(k), 0};
    const GridCoord dest{static_cast<std::int32_t>(7 - k), 7};
    auto route = astar.Plan(table_, 0, origin, dest, options_);
    ASSERT_TRUE(route.has_value()) << "robot " << k;
    table_.Reserve(k, *route);
    routes.push_back(*route);
  }
  EXPECT_TRUE(RouteSetValidator::IsCollisionFree(routes));
}

TEST_F(SpaceTimeAStarTest, ScratchReusedAcrossQueriesWithoutReallocation) {
  SpaceTimeAStar astar(matrix_);
  // Warm-up queries size the retained workspace (parent map + open list).
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(astar.Plan(table_, 0, {0, 0}, {7, 7}, options_).has_value());
  }
  const auto warm = astar.scratch_footprint();
  EXPECT_GT(warm.parent_slots, 0u);
  EXPECT_GT(warm.open_capacity, 0u);
  // Steady state: repeating the same query must not grow either container
  // — reuse is clear-by-epoch, never reallocate.
  for (int k = 0; k < 16; ++k) {
    ASSERT_TRUE(astar.Plan(table_, 0, {0, 0}, {7, 7}, options_).has_value());
    const auto now = astar.scratch_footprint();
    EXPECT_EQ(now.parent_slots, warm.parent_slots);
    EXPECT_EQ(now.open_capacity, warm.open_capacity);
  }
}

// ---- Brute-force reference: the earliest-arrival check.

/// Earliest time a robot occupying `origin` at `start` can occupy
/// `destination`, found by breadth-first search over time layers: layer t
/// is every traversable cell reachable at t, and layer t + 1 keeps every
/// wait or 4-neighbour step the oracle allows from it. Nullopt when the
/// origin is taken at `start`, the layers die out, or t would pass
/// start + horizon (Plan's bound).
std::optional<TimeStep> BruteForceArrival(const WarehouseMatrix& matrix,
                                          const SpaceTimeOracle& oracle,
                                          TimeStep start, GridCoord origin,
                                          GridCoord destination,
                                          TimeStep horizon) {
  if (!matrix.IsTraversable(origin) || !matrix.IsTraversable(destination) ||
      !oracle.IsFree(origin, start)) {
    return std::nullopt;
  }
  const std::size_t cells =
      static_cast<std::size_t>(matrix.height() * matrix.width());
  std::vector<char> layer(cells, 0);
  layer[static_cast<std::size_t>(matrix.Index(origin))] = 1;
  for (TimeStep t = start;; ++t) {
    if (layer[static_cast<std::size_t>(matrix.Index(destination))]) return t;
    if (t + 1 > start + horizon) return std::nullopt;
    std::vector<char> next(cells, 0);
    bool any = false;
    for (std::size_t i = 0; i < cells; ++i) {
      if (!layer[i]) continue;
      const GridCoord cell = matrix.CoordOf(static_cast<std::int64_t>(i));
      GridCoord steps[5] = {cell};
      const int count = 1 + matrix.Neighbors(cell, steps + 1);
      for (int k = 0; k < count; ++k) {
        if (matrix.IsTraversable(steps[k]) &&
            oracle.IsMoveAllowed(cell, steps[k], t)) {
          next[static_cast<std::size_t>(matrix.Index(steps[k]))] = 1;
          any = true;
        }
      }
    }
    if (!any) return std::nullopt;
    layer.swap(next);
  }
}

GridCoord RandomTraversable(const WarehouseMatrix& matrix, Rng& rng) {
  for (;;) {
    const GridCoord g{
        static_cast<std::int32_t>(rng.UniformInt(0, matrix.height() - 1)),
        static_cast<std::int32_t>(rng.UniformInt(0, matrix.width() - 1))};
    if (matrix.IsTraversable(g)) return g;
  }
}

/// A random walk from a cell free at `t0` that only takes steps `table`
/// allows, waiting with probability `p_wait`; it ends early when boxed in.
/// Reserving it keeps the table collision-free.
Route RandomWalk(const WarehouseMatrix& matrix, const ReservationTable& table,
                 Rng& rng, TimeStep t0, GridCoord from, int steps,
                 double p_wait) {
  std::vector<GridCoord> cells = {from};
  for (TimeStep t = t0; t < t0 + steps; ++t) {
    const GridCoord at = cells.back();
    if (rng.Bernoulli(p_wait) && table.IsMoveAllowed(at, at, t)) {
      cells.push_back(at);
      continue;
    }
    GridCoord options[5] = {at};
    const int count = 1 + matrix.Neighbors(at, options + 1);
    std::vector<GridCoord> allowed;
    for (int k = 0; k < count; ++k) {
      if (matrix.IsTraversable(options[k]) &&
          table.IsMoveAllowed(at, options[k], t)) {
        allowed.push_back(options[k]);
      }
    }
    if (allowed.empty()) break;
    cells.push_back(allowed[rng.UniformU32(
        static_cast<std::uint32_t>(allowed.size()))]);
  }
  return Route(t0, std::move(cells));
}

/// Grid A* runs the unweighted Manhattan bound, so every answer must be the
/// earliest arrival: on 300 seeded small grids with scattered racks and
/// random committed walks, Plan must end exactly when the brute-force
/// reference does (or fail exactly when it does), with a route that is
/// valid and collision-free against the walks.
TEST(SpaceTimeAStarReferenceTest, MatchesBruteForceEarliestArrival) {
  int solved = 0;
  int waited = 0;   // arrival later than the Manhattan distance allows
  int blocked = 0;  // arrival later than on an empty table
  int unsolved = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    WarehouseMatrix matrix(static_cast<std::int32_t>(rng.UniformInt(4, 9)),
                           static_cast<std::int32_t>(rng.UniformInt(4, 9)));
    for (std::int32_t r = 0; r < matrix.height(); ++r) {
      for (std::int32_t c = 0; c < matrix.width(); ++c) {
        if (rng.Bernoulli(0.15)) matrix.SetRack({r, c}, true);
      }
    }
    ReservationTable table;
    std::vector<Route> committed;
    const int walks = static_cast<int>(rng.UniformInt(3, 12));
    for (int w = 0; w < walks; ++w) {
      const TimeStep t0 = rng.UniformInt(0, 8);
      const GridCoord from = RandomTraversable(matrix, rng);
      if (!table.IsFree(from, t0)) continue;
      committed.push_back(RandomWalk(matrix, table, rng, t0, from,
                                     static_cast<int>(rng.UniformInt(4, 30)),
                                     rng.Bernoulli(0.5) ? 0.8 : 0.2));
      table.Reserve(w, committed.back());
    }

    const GridCoord origin = RandomTraversable(matrix, rng);
    const GridCoord destination = RandomTraversable(matrix, rng);
    const TimeStep start = rng.UniformInt(0, 8);
    SpaceTimeAStarOptions options;
    options.horizon = 3 * (matrix.height() + matrix.width());
    SpaceTimeAStar astar(matrix);
    const auto route = astar.Plan(table, start, origin, destination, options);
    const auto expected = BruteForceArrival(matrix, table, start, origin,
                                            destination, options.horizon);
    ASSERT_EQ(route.has_value(), expected.has_value());
    if (!route.has_value()) {
      ++unsolved;
      continue;
    }
    ASSERT_EQ(route->end_time(), *expected);
    EXPECT_EQ(route->start_time(), start);
    EXPECT_EQ(route->cells().front(), origin);
    EXPECT_EQ(route->cells().back(), destination);
    EXPECT_TRUE(route->IsKinematicallyValid(matrix));
    committed.push_back(*route);
    EXPECT_TRUE(RouteSetValidator::IsCollisionFree(committed));
    ++solved;
    if (*expected - start > ManhattanDistance(origin, destination)) ++waited;
    const auto free_arrival =
        BruteForceArrival(matrix, ReservationTable{}, start, origin,
                          destination, options.horizon);
    if (free_arrival.has_value() && *expected > *free_arrival) ++blocked;
  }
  // Not vacuous (the seeds give 107, 91 and 50 of 300): at least 30% of
  // the answered queries arrive later than their Manhattan distance, at
  // least 25% later than on an empty table, and some have no answer.
  EXPECT_GE(10 * waited, 3 * solved) << waited << " of " << solved;
  EXPECT_GE(4 * blocked, solved) << blocked << " of " << solved;
  EXPECT_GT(unsolved, 0);
}

/// A robot parked on the destination over exactly [d, d + 40], where d is
/// the unobstructed earliest arrival: the search must wait the dwell out
/// and arrive at d + 41, as the brute-force reference does.
TEST(SpaceTimeAStarReferenceTest, WaitsOutDwellOnDestination) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    WarehouseMatrix matrix(8, 8);
    const GridCoord origin = RandomTraversable(matrix, rng);
    const GridCoord destination = RandomTraversable(matrix, rng);
    if (origin == destination) continue;
    const TimeStep start = rng.UniformInt(0, 8);
    SpaceTimeAStarOptions options;
    ReservationTable table;
    SpaceTimeAStar astar(matrix);
    const auto unobstructed =
        astar.Plan(table, start, origin, destination, options);
    ASSERT_TRUE(unobstructed.has_value());
    const TimeStep d = unobstructed->end_time();
    ASSERT_EQ(d, start + ManhattanDistance(origin, destination));

    table.Reserve(0, Route(d, std::vector<GridCoord>(41, destination)));
    const auto route = astar.Plan(table, start, origin, destination, options);
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(route->end_time(), d + 41);
    EXPECT_EQ(BruteForceArrival(matrix, table, start, origin, destination,
                                options.horizon),
              d + 41);
  }
}

}  // namespace
}  // namespace carp::core
