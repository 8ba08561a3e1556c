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

TEST(PlannerDifferentialTest, DefaultOptionsScenarioAllBackendsAgree) {
  PlannerDiffOptions opt;
  opt.seed = 11;
  opt.tasks = 24;
  const PlannerDiffResult r = RunPlannerDifferential(opt);
  EXPECT_TRUE(r.ok) << r.error;
}

}  // namespace
}  // namespace carp::check
