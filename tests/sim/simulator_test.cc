#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "baselines/planner_factory.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "sim/experiment_runner.h"
#include "workload/task_generator.h"

namespace carp::sim {
namespace {

class SimulatorTest : public ::testing::Test {
 protected:
  layout::Warehouse warehouse_ =
      layout::GenerateWarehouse(layout::PresetTiny());

  std::vector<workload::DeliveryTask> MakeTasks(int n, TimeStep day) {
    workload::TaskGeneratorOptions opts;
    opts.task_count = n;
    opts.day_length = day;
    opts.seed = 7;
    return workload::GenerateTasks(
        warehouse_, workload::ArrivalProfile::Uniform(), opts);
  }
};

TEST_F(SimulatorTest, AllTasksFinishWithSrp) {
  auto planner = baselines::MakePlanner("SRP", warehouse_.matrix);
  Simulator sim(warehouse_, *planner);
  RunMetrics m = sim.Run(MakeTasks(30, 300));
  EXPECT_EQ(m.finished_tasks, 30);
  EXPECT_EQ(m.total_tasks, 30);
  EXPECT_TRUE(m.validated);
  EXPECT_TRUE(m.collision_free);
  EXPECT_GT(m.makespan, 0);
  EXPECT_GT(m.total_tc_seconds, 0.0);
  EXPECT_GT(m.peak_mc_bytes, 0u);
}

TEST_F(SimulatorTest, MetricsSamplesAreMonotone) {
  auto planner = baselines::MakePlanner("SRP", warehouse_.matrix);
  SimulatorOptions options;
  options.sample_points = 10;
  Simulator sim(warehouse_, *planner, options);
  RunMetrics m = sim.Run(MakeTasks(40, 400));
  ASSERT_GE(m.samples.size(), 2u);
  for (std::size_t i = 1; i < m.samples.size(); ++i) {
    EXPECT_GE(m.samples[i].progress, m.samples[i - 1].progress);
    EXPECT_GE(m.samples[i].tc_seconds, m.samples[i - 1].tc_seconds);
  }
  EXPECT_DOUBLE_EQ(m.samples.back().progress, 1.0);
}

TEST_F(SimulatorTest, MakespanCoversAllRoutes) {
  auto planner = baselines::MakePlanner("SAP", warehouse_.matrix);
  Simulator sim(warehouse_, *planner);
  RunMetrics m = sim.Run(MakeTasks(20, 200));
  for (const auto& r : planner->committed_routes()) {
    EXPECT_LE(r.finish_term(), m.makespan);
  }
}

TEST_F(SimulatorTest, StageSequencingProducesThreeRoutesPerTask) {
  auto planner = baselines::MakePlanner("SRP", warehouse_.matrix);
  Simulator sim(warehouse_, *planner);
  RunMetrics m = sim.Run(MakeTasks(15, 600));
  EXPECT_EQ(m.failed_queries, 0);
  EXPECT_EQ(planner->committed_routes().size(), 45u);
}

TEST_F(SimulatorTest, EmptyTaskListNoWork) {
  auto planner = baselines::MakePlanner("SRP", warehouse_.matrix);
  Simulator sim(warehouse_, *planner);
  RunMetrics m = sim.Run({});
  EXPECT_EQ(m.finished_tasks, 0);
  EXPECT_EQ(m.makespan, 0);
  EXPECT_TRUE(m.collision_free);
}

TEST_F(SimulatorTest, MoreRobotsThanTasksStillFine) {
  auto planner = baselines::MakePlanner("SRP", warehouse_.matrix);
  Simulator sim(warehouse_, *planner);
  RunMetrics m = sim.Run(MakeTasks(3, 10));
  EXPECT_EQ(m.finished_tasks, 3);
}

class SimulatorAlgorithmTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SimulatorAlgorithmTest, DayCompletesCollisionFree) {
  layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetTiny());
  auto planner = baselines::MakePlanner(GetParam(), warehouse.matrix);
  ASSERT_NE(planner, nullptr);

  workload::TaskGeneratorOptions opts;
  opts.task_count = 25;
  opts.day_length = 250;
  opts.seed = 3;
  const auto tasks = workload::GenerateTasks(
      warehouse, workload::ArrivalProfile::DoubleSurge(), opts);

  Simulator sim(warehouse, *planner);
  RunMetrics m = sim.Run(tasks);
  EXPECT_EQ(m.finished_tasks, 25) << GetParam();
  EXPECT_TRUE(m.collision_free) << GetParam();
  EXPECT_LT(m.failed_queries, 3) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllPlanners, SimulatorAlgorithmTest,
                         ::testing::Values("SAP", "RP", "TWP", "ACP", "SRP",
                                           "SRP-indexed"));

TEST(ExperimentRunnerTest, RunsPairedDaysAcrossAlgorithms) {
  ExperimentConfig config;
  config.scenario = workload::PaperScenario("W-1");
  config.scenario.layout = layout::PresetTiny();  // shrink for the test
  config.scenario.day_length = 400;
  config.scale = 0.001;  // 45 tasks on day 1
  config.days = 2;
  config.algorithms = {"SRP", "ACP"};
  config.simulator.sample_points = 5;

  auto results = RunExperiment(config);
  ASSERT_EQ(results.size(), 4u);  // 2 days x 2 algorithms
  EXPECT_EQ(results[0].algorithm, "SRP");
  EXPECT_EQ(results[1].algorithm, "ACP");
  EXPECT_EQ(results[0].day, 1);
  EXPECT_EQ(results[2].day, 2);
  for (const auto& r : results) {
    EXPECT_EQ(r.scenario, "W-1");
    EXPECT_TRUE(r.collision_free);
    EXPECT_EQ(r.finished_tasks, r.total_tasks);
  }
}

}  // namespace
}  // namespace carp::sim
