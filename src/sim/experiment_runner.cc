#include "sim/experiment_runner.h"

#include <algorithm>

#include "baselines/planner_factory.h"
#include "common/logging.h"
#include "layout/layout_generator.h"
#include "workload/task_generator.h"

namespace carp::sim {

std::vector<RunMetrics> RunExperiment(const ExperimentConfig& config) {
  CARP_CHECK(!config.algorithms.empty()) << "no algorithms configured";

  const workload::Scenario scenario =
      workload::ScaledScenario(config.scenario, config.scale);
  const layout::Warehouse warehouse = GenerateWarehouse(scenario.layout);

  const int days = std::min<int>(
      config.days, static_cast<int>(scenario.daily_tasks.size()));

  std::vector<RunMetrics> results;
  for (int day = 0; day < days; ++day) {
    workload::TaskGeneratorOptions task_opts;
    task_opts.task_count = scenario.daily_tasks[static_cast<std::size_t>(day)];
    task_opts.day_length = scenario.day_length;
    task_opts.seed = scenario.seed * 1000 + static_cast<std::uint64_t>(day);
    const auto tasks = workload::GenerateTasks(
        warehouse, workload::ArrivalProfile::DoubleSurge(), task_opts);

    for (const std::string& algorithm : config.algorithms) {
      auto planner = baselines::MakePlanner(algorithm, warehouse.matrix);
      CARP_CHECK(planner != nullptr) << "unknown algorithm " << algorithm;

      Simulator sim(warehouse, *planner, config.simulator);
      RunMetrics metrics = sim.Run(tasks);
      metrics.scenario = scenario.name;
      metrics.day = day + 1;
      results.push_back(std::move(metrics));
    }
  }
  return results;
}

}  // namespace carp::sim
