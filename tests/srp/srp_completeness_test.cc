// Completeness of SRP's strip passes against a brute-force (cell, t)
// reachability sweep: on small seeded grids with random committed traffic,
// every query whose reference finds a route must get one from SRP (the A*
// fallback closes whatever the strip passes miss), and the test reports
// how often the strip passes alone miss a route that exists.

#include <iostream>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/collision.h"
#include "core/reservation_table.h"
#include "srp/srp_planner.h"
#include "tests/core/spacetime_reference.h"

namespace carp::srp {
namespace {

using core::BruteForceArrival;
using core::RandomTraversable;
using core::RandomWalk;
using core::ReservationTable;
using core::Route;
using core::RouteSetValidator;
using core::WarehouseMatrix;

TEST(SrpCompletenessTest, StripPassesAgainstBruteForceReachability) {
  int answered = 0;     // the reference finds a route
  int unreachable = 0;  // it does not
  int first_misses = 0;  // answered, but the first strip pass failed
  int misses = 0;        // answered, but both strip passes failed
  std::int64_t rescues = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    WarehouseMatrix matrix(static_cast<std::int32_t>(rng.UniformInt(5, 10)),
                           static_cast<std::int32_t>(rng.UniformInt(5, 10)));
    for (std::int32_t r = 0; r < matrix.height(); ++r) {
      for (std::int32_t c = 0; c < matrix.width(); ++c) {
        if (rng.Bernoulli(0.15)) matrix.SetRack({r, c}, true);
      }
    }
    SrpPlanner planner(matrix);
    // Mirror of the planner's committed routes for the reference sweep.
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
      table.Reserve(static_cast<core::RouteId>(committed.size()),
                    committed.back());
      planner.CommitRoute(committed.back());
    }

    for (int q = 0; q < 4; ++q) {
      const GridCoord origin = RandomTraversable(matrix, rng);
      const GridCoord destination = RandomTraversable(matrix, rng);
      const TimeStep start = rng.UniformInt(0, 8);
      // SRP delays the dispatch of a query whose origin is taken; the
      // reference starts on time, so such queries are not comparable.
      if (!table.IsFree(origin, start)) continue;
      const auto expected =
          BruteForceArrival(matrix, table, start, origin, destination,
                            planner.effective_fallback_horizon());
      const core::PlannerStats before = planner.stats();
      const auto route = planner.PlanRoute(start, origin, destination);
      const core::PlannerStats& after = planner.stats();
      const std::int64_t rescued = after.rescues - before.rescues;
      const bool strips_failed = after.fallbacks > before.fallbacks;
      rescues += rescued;
      ASSERT_EQ(route.has_value(), expected.has_value());
      if (!route.has_value()) {
        ++unreachable;
        continue;
      }
      ++answered;
      if (rescued > 0 || strips_failed) ++first_misses;
      if (strips_failed) ++misses;
      EXPECT_EQ(route->start_time(), start);
      EXPECT_GE(route->end_time(), *expected);
      EXPECT_EQ(route->cells().front(), origin);
      EXPECT_EQ(route->cells().back(), destination);
      EXPECT_TRUE(route->IsKinematicallyValid(matrix));
      committed.push_back(*route);
      table.Reserve(static_cast<core::RouteId>(committed.size()), *route);
    }
    EXPECT_TRUE(RouteSetValidator::IsCollisionFree(committed));
    EXPECT_EQ(planner.CheckInvariants(), "");
  }
  std::cout << "strip passes missed " << misses << " of " << answered
            << " routes that exist (first pass alone: " << first_misses
            << "; rescued " << rescues << "); " << unreachable
            << " queries had no route\n";
  RecordProperty("answered", answered);
  RecordProperty("first_pass_misses", first_misses);
  RecordProperty("misses", misses);
  // Not vacuous: the rescue pass answers something, and both answered and
  // unreachable queries occur.
  EXPECT_GE(rescues, 1);
  EXPECT_GE(answered, 1);
  EXPECT_GE(unreachable, 1);
}

}  // namespace
}  // namespace carp::srp
