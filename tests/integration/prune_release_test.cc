// Release-after-prune semantics, pinned per backend (core::Planner's
// lifecycle contract): PruneBefore(t) may drop the leading part of a
// committed route's collision state; a later ReleaseRoute must retire the
// surviving remainder without leaking state or double-counting, and a
// route PruneBefore dropped wholesale must count as pruned, not released.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "baselines/grid_planner_base.h"
#include "baselines/planner_factory.h"
#include "core/planner.h"
#include "core/route.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "srp/srp_planner.h"

namespace carp {
namespace {

class PruneReleaseTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    warehouse_ = layout::GenerateWarehouse(layout::PresetTiny());
    planner_ = baselines::MakePlanner(GetParam(), warehouse_.matrix);
    ASSERT_NE(planner_, nullptr);
  }

  /// Plans one route spanning at least two timesteps.
  core::Route PlanOne() {
    auto route = planner_->PlanRoute(0, warehouse_.rack_access.at(0),
                                     warehouse_.pickers.at(0));
    EXPECT_TRUE(route.has_value());
    EXPECT_LT(route->start_time(), route->end_time());
    return *route;
  }

  /// No collision state may survive once every route is retired.
  void ExpectNoLeakedState() {
    EXPECT_EQ(planner_->live_routes(), 0u);
    if (auto* srp = dynamic_cast<srp::SrpPlanner*>(planner_.get())) {
      EXPECT_EQ(srp->SegmentCount(), 0u);
      EXPECT_EQ(srp->CheckInvariants(), "");
    }
    if (auto* grid =
            dynamic_cast<baselines::GridPlannerBase*>(planner_.get())) {
      EXPECT_EQ(grid->reservations().EntryCount(), 0u);
      EXPECT_EQ(grid->reservations().CheckInvariants(), "");
    }
  }

  layout::Warehouse warehouse_;
  std::unique_ptr<core::Planner> planner_;
};

TEST_P(PruneReleaseTest, ReleaseAfterPartialPruneRetiresRemainder) {
  const core::Route route = PlanOne();
  ASSERT_EQ(planner_->live_routes(), 1u);

  // Cut strictly inside the route: the leading state vanishes, the route
  // itself stays committed (its end lies at or beyond the cutoff).
  const TimeStep mid = (route.start_time() + route.end_time()) / 2 + 1;
  ASSERT_LE(mid, route.end_time());
  EXPECT_EQ(planner_->PruneBefore(mid), 0u);
  EXPECT_EQ(planner_->live_routes(), 1u);
  EXPECT_EQ(planner_->stats().routes_pruned, 0);

  // Releasing now must retire the surviving remainder: the missing
  // leading segments / reservations are skipped, not an error, and the
  // route counts as released exactly once.
  EXPECT_TRUE(planner_->ReleaseRoute(route));
  EXPECT_EQ(planner_->stats().routes_released, 1);
  EXPECT_EQ(planner_->stats().routes_pruned, 0);
  EXPECT_FALSE(planner_->ReleaseRoute(route));
  EXPECT_EQ(planner_->stats().routes_released, 1);
  ExpectNoLeakedState();
}

TEST_P(PruneReleaseTest, ReleaseAfterFullPruneIsCountedAsPrunedNotReleased) {
  const core::Route route = PlanOne();

  // Prune past the route's end: the route is dropped wholesale.
  EXPECT_EQ(planner_->PruneBefore(route.end_time() + 1), 1u);
  EXPECT_EQ(planner_->stats().routes_pruned, 1);
  EXPECT_EQ(planner_->live_routes(), 0u);

  // A late release of the already-pruned route is a no-op miss — it must
  // not be double-counted as a release.
  EXPECT_FALSE(planner_->ReleaseRoute(route));
  EXPECT_EQ(planner_->stats().routes_released, 0);
  EXPECT_EQ(planner_->stats().routes_pruned, 1);
  ExpectNoLeakedState();
}

INSTANTIATE_TEST_SUITE_P(AllPlanners, PruneReleaseTest,
                         ::testing::Values("SAP", "RP", "TWP", "ACP", "SRP",
                                           "SRP-indexed"));

}  // namespace
}  // namespace carp
