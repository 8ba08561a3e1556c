#include "core/spacetime_astar.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace carp::core
