#include "baselines/planner_factory.h"

#include <gtest/gtest.h>

#include "core/collision.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"

namespace carp::baselines {
namespace {

TEST(PlannerFactoryTest, CreatesAllPaperAlgorithms) {
  layout::Warehouse w = layout::GenerateWarehouse(layout::PresetTiny());
  for (const std::string& name : PaperAlgorithms()) {
    auto planner = MakePlanner(name, w.matrix);
    ASSERT_NE(planner, nullptr) << name;
    EXPECT_EQ(planner->name(), name);
  }
}

TEST(PlannerFactoryTest, PaperAlgorithmOrder) {
  EXPECT_EQ(PaperAlgorithms(),
            (std::vector<std::string>{"SAP", "RP", "TWP", "ACP", "SRP"}));
}

TEST(PlannerFactoryTest, SrpIndexedVariant) {
  layout::Warehouse w = layout::GenerateWarehouse(layout::PresetTiny());
  auto planner = MakePlanner("SRP-indexed", w.matrix);
  ASSERT_NE(planner, nullptr);
  EXPECT_EQ(planner->name(), "SRP");  // same algorithm, different store
}

TEST(PlannerFactoryTest, UnknownTagReturnsNull) {
  layout::Warehouse w = layout::GenerateWarehouse(layout::PresetTiny());
  EXPECT_EQ(MakePlanner("NOPE", w.matrix), nullptr);
  EXPECT_EQ(MakePlanner("", w.matrix), nullptr);
}

TEST(PlannerFactoryTest, EveryPlannerPlansABasicRoute) {
  layout::Warehouse w = layout::GenerateWarehouse(layout::PresetTiny());
  for (const std::string& name : PaperAlgorithms()) {
    auto planner = MakePlanner(name, w.matrix);
    auto route = planner->PlanRoute(0, {0, 0}, {0, 10});
    ASSERT_TRUE(route.has_value()) << name;
    EXPECT_TRUE(route->IsKinematicallyValid(w.matrix)) << name;
    EXPECT_TRUE(core::RouteSetValidator::IsCollisionFree(
        planner->committed_routes()))
        << name;
  }
}

}  // namespace
}  // namespace carp::baselines
