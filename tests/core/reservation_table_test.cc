#include "core/reservation_table.h"

#include <gtest/gtest.h>

namespace carp::core {
namespace {

TEST(ReservationTableTest, ReserveAndQuery) {
  ReservationTable table;
  Route r(5, {{0, 0}, {0, 1}, {0, 2}});
  table.Reserve(7, r);
  EXPECT_EQ(table.EntryCount(), 3u);
  EXPECT_EQ(table.OccupantAt({0, 0}, 5), std::optional<RouteId>(7));
  EXPECT_EQ(table.OccupantAt({0, 1}, 6), std::optional<RouteId>(7));
  EXPECT_FALSE(table.OccupantAt({0, 1}, 5).has_value());
  EXPECT_TRUE(table.IsFree({0, 0}, 6));
  EXPECT_FALSE(table.IsFree({0, 2}, 7));
}

TEST(ReservationTableTest, ReleaseRemovesOnlyOwnEntries) {
  ReservationTable table;
  Route r1(0, {{0, 0}, {0, 1}});
  Route r2(0, {{1, 0}, {1, 1}});
  table.Reserve(1, r1);
  table.Reserve(2, r2);
  table.Release(1, r1);
  EXPECT_TRUE(table.IsFree({0, 0}, 0));
  EXPECT_FALSE(table.IsFree({1, 0}, 0));
  EXPECT_EQ(table.EntryCount(), 2u);
}

TEST(ReservationTableTest, VertexConflictBlocksMove) {
  ReservationTable table;
  table.Reserve(1, Route(0, {{0, 5}, {0, 5}}));  // occupies (0,5) t=0,1
  EXPECT_FALSE(table.IsMoveAllowed({0, 4}, {0, 5}, 0));
  EXPECT_TRUE(table.IsMoveAllowed({0, 4}, {0, 5}, 1));  // lands at t=2
}

TEST(ReservationTableTest, SwapConflictBlocksMove) {
  ReservationTable table;
  // Route moves (0,1) -> (0,0) over t=0..1.
  table.Reserve(1, Route(0, {{0, 1}, {0, 0}}));
  // Moving (0,0) -> (0,1) at t=0 would swap.
  EXPECT_FALSE(table.IsMoveAllowed({0, 0}, {0, 1}, 0));
}

TEST(ReservationTableTest, FollowingMoveAllowed) {
  ReservationTable table;
  table.Reserve(1, Route(0, {{0, 1}, {0, 2}}));
  // Stepping into the vacated cell: (0,0)->(0,1) lands at t=1 where the
  // occupant has left.
  EXPECT_TRUE(table.IsMoveAllowed({0, 0}, {0, 1}, 0));
}

TEST(ReservationTableTest, WaitConflictsOnlyWithOccupancy) {
  ReservationTable table;
  table.Reserve(1, Route(2, {{3, 3}}));
  EXPECT_FALSE(table.IsMoveAllowed({3, 3}, {3, 3}, 1));  // lands t=2
  EXPECT_TRUE(table.IsMoveAllowed({3, 3}, {3, 3}, 2));   // lands t=3
}

TEST(ReservationTableTest, PruneBeforeDropsOnlyPastEntries) {
  ReservationTable table;
  Route past(0, {{0, 0}, {0, 1}, {0, 2}});    // occupies t=0..2
  Route future(10, {{5, 5}, {5, 6}});         // occupies t=10..11
  table.Reserve(1, past);
  table.Reserve(2, future);
  EXPECT_EQ(table.PruneBefore(5), 3u);
  EXPECT_EQ(table.EntryCount(), 2u);
  EXPECT_TRUE(table.IsFree({0, 0}, 0));
  EXPECT_FALSE(table.IsFree({5, 5}, 10));
  // The horizon bound stays a safe upper bound for the survivors.
  EXPECT_GE(table.MaxReservedTime(0), 11);
  // Releasing the pruned route is a silent no-op; the freed cells can be
  // reserved again by a new route.
  table.Release(1, past);
  EXPECT_EQ(table.EntryCount(), 2u);
  table.Reserve(3, Route(0, {{0, 0}, {0, 1}}));
  EXPECT_EQ(table.OccupantAt({0, 0}, 0), std::optional<RouteId>(3));
}

TEST(ReservationTableTest, PruneBeforeMidRouteKeepsRemainder) {
  ReservationTable table;
  Route r(0, {{0, 0}, {0, 1}, {0, 2}, {0, 3}});  // occupies t=0..3
  table.Reserve(1, r);
  EXPECT_EQ(table.PruneBefore(2), 2u);
  EXPECT_TRUE(table.IsFree({0, 0}, 0));
  EXPECT_EQ(table.OccupantAt({0, 2}, 2), std::optional<RouteId>(1));
  EXPECT_EQ(table.OccupantAt({0, 3}, 3), std::optional<RouteId>(1));
  // Releasing the half-pruned route removes exactly the surviving tail.
  table.Release(1, r);
  EXPECT_EQ(table.EntryCount(), 0u);
}

TEST(ReservationTableTest, MaxReservedTimeTracksRoutes) {
  ReservationTable table;
  EXPECT_EQ(table.MaxReservedTime(99), 99);
  table.Reserve(1, Route(10, {{0, 0}, {0, 1}}));
  EXPECT_EQ(table.MaxReservedTime(0), 11);
}

TEST(ReservationTableTest, ClearEmptiesEverything) {
  ReservationTable table;
  table.Reserve(1, Route(0, {{0, 0}}));
  table.Clear();
  EXPECT_EQ(table.EntryCount(), 0u);
  EXPECT_TRUE(table.IsFree({0, 0}, 0));
}

TEST(ReservationTableTest, RetainedBytesGrowsWithEntries) {
  ReservationTable table;
  const std::size_t empty = table.RetainedBytes();
  std::vector<GridCoord> cells;
  for (std::int32_t i = 0; i < 100; ++i) cells.push_back({0, i});
  table.Reserve(1, Route(0, cells));
  EXPECT_GT(table.RetainedBytes(), empty);
}

TEST(ReservationTableTest, ReleaseErasesEmptiedBuckets) {
  // A bucket emptied by Release must be erased, not left behind — pinned
  // by the buckets_erased counter and the no-empty-bucket invariant.
  ReservationTable table;
  const Route a(0, {{0, 0}, {0, 1}, {0, 2}});  // t = 0, 1, 2
  const Route b(1, {{5, 5}, {5, 6}});          // t = 1, 2 (shared buckets)
  table.Reserve(1, a);
  table.Reserve(2, b);
  EXPECT_EQ(table.buckets_erased(), 0);
  // Releasing `a` empties only the t=0 bucket; t=1 and t=2 still hold `b`.
  table.Release(1, a);
  EXPECT_EQ(table.buckets_erased(), 1);
  table.Release(2, b);
  EXPECT_EQ(table.buckets_erased(), 3);
  EXPECT_EQ(table.CheckInvariants(), "");
}

TEST(ReservationTableTest, PruneBeforeCountsDroppedBuckets) {
  ReservationTable table;
  std::vector<GridCoord> cells;
  for (std::int32_t i = 0; i < 6; ++i) cells.push_back({0, i});
  table.Reserve(1, Route(0, cells));  // buckets t = 0..5
  EXPECT_EQ(table.PruneBefore(4), 4u);
  EXPECT_EQ(table.buckets_erased(), 4);
  // Clear starts the counter over with the rest of the state.
  table.Clear();
  EXPECT_EQ(table.buckets_erased(), 0);
}

using ReservationTableDeathTest = ::testing::Test;

TEST(ReservationTableDeathTest, DoubleReserveDies) {
  ReservationTable table;
  table.Reserve(1, Route(0, {{0, 0}}));
  EXPECT_DEATH(table.Reserve(2, Route(0, {{0, 0}})), "reserving over route");
}

}  // namespace
}  // namespace carp::core
