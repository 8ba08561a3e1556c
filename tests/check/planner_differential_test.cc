// Planner-level differential scenarios (DESIGN.md §2d): every backend
// through the same random day, retire/prune on and off, serial and
// speculative dispatch — collision-freedom, SRP-vs-noindex equality and
// lifecycle accounting cross-checked in one harness.
#include <gtest/gtest.h>

#include "check/planner_differential.h"

namespace carp::check {
namespace {

TEST(PlannerDifferentialTest, RetireAndPruneScenarioAllBackendsAgree) {
  PlannerDiffOptions opt;
  opt.seed = 3;
  opt.tasks = 30;
  opt.retire_routes = true;
  const PlannerDiffResult r = RunPlannerDifferential(opt);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(PlannerDifferentialTest, KeepEverythingScenarioAllBackendsAgree) {
  PlannerDiffOptions opt;
  opt.seed = 7;
  opt.tasks = 24;
  opt.retire_routes = false;
  const PlannerDiffResult r = RunPlannerDifferential(opt);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(PlannerDifferentialTest, ManhattanModeScenarioAgrees) {
  PlannerDiffOptions opt;
  opt.seed = 11;
  opt.tasks = 24;
  const PlannerDiffResult r = RunPlannerDifferential(opt);
  EXPECT_TRUE(r.ok) << r.error;
}

/// StoreFault::kOverwideInterval calibration: the engine differential's
/// cost-equality + collision audits must flag an interval extractor whose
/// upper bounds leak one step into the ending reservation, within a
/// 20-seed budget — and the paired clean control must never diverge.
TEST(PlannerDifferentialTest, EngineFaultCalibrationDetectsOverwideBounds) {
  const EngineFaultResult r = RunEngineFaultCalibration(20);
  EXPECT_TRUE(r.detected) << r.detail;
  EXPECT_LE(r.seeds_tried, 20);
  EXPECT_GT(r.detected_seed, 0u);
  SCOPED_TRACE(r.detail);
}

}  // namespace
}  // namespace carp::check
