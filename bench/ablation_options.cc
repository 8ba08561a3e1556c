// Ablation of the design choices DESIGN.md calls out, beyond the paper's
// own Fig. 22 index ablation:
//   (a) SRP engine options: slope index, goal heuristic + weighting,
//       geodesic-tube pruning, static-first planning;
//   (b) robot-assignment policy of the test environment;
//   (c) batch-priority ordering (Def. 3's set-based formulation).
// Each row reports TC / makespan / fallbacks on the same W-1 workload.

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/batch_planner.h"
#include "layout/layout_generator.h"
#include "sim/simulator.h"
#include "srp/srp_planner.h"
#include "workload/task_generator.h"

namespace {

using namespace carp;

struct Workload {
  layout::Warehouse warehouse;
  std::vector<workload::DeliveryTask> tasks;
};

Workload MakeWorkload(double scale) {
  const auto scenario =
      workload::ScaledScenario(workload::PaperScenario("W-1"), scale);
  Workload w{GenerateWarehouse(scenario.layout), {}};
  workload::TaskGeneratorOptions topts;
  topts.task_count = scenario.daily_tasks[0];
  topts.day_length = scenario.day_length;
  topts.seed = 91;
  w.tasks = workload::GenerateTasks(
      w.warehouse, workload::ArrivalProfile::DoubleSurge(), topts);
  return w;
}

void RunSrpVariant(const Workload& w, const std::string& label,
                   const srp::SrpPlannerOptions& options, bool retire,
                   TableWriter& table, std::vector<sim::RunMetrics>& runs) {
  srp::SrpPlanner planner(w.warehouse.matrix, options);
  sim::SimulatorOptions sim_options;
  sim_options.validate = true;
  sim_options.retire_routes = retire;
  sim::Simulator simulator(w.warehouse, planner, sim_options);
  auto m = simulator.Run(w.tasks);
  table.AddRow({label, FormatDouble(m.total_tc_seconds, 3),
                std::to_string(m.makespan),
                std::to_string(m.planner_stats.fallbacks),
                m.collision_free ? "yes" : "NO"});
  m.algorithm = label;
  m.scenario = "W-1";
  m.day = 1;
  runs.push_back(std::move(m));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options =
      bench::BenchOptions::Parse(argc, argv, 0.012);
  bench::PrintHeader("Ablations: SRP options / assignment / batch order",
                     options);
  const Workload w = MakeWorkload(options.scale);
  std::cout << "tasks: " << w.tasks.size() << "\n\n";

  std::vector<sim::RunMetrics> variant_runs;
  {
    std::cout << "(a) SRP engine options:\n";
    TableWriter table(
        {"variant", "TC (s)", "makespan", "fallbacks", "collision-free"});
    srp::SrpPlannerOptions base;
    RunSrpVariant(w, "default (sorted store, wA*=1.25, tube=6)", base,
                  false, table, variant_runs);

    srp::SrpPlannerOptions v = base;
    v.use_slope_index = true;
    RunSrpVariant(w, "slope index (Sec. V-D)", v, false, table,
                  variant_runs);

    v = base;
    v.use_goal_heuristic = false;
    v.detour_slack = -1;
    RunSrpVariant(w, "plain Dijkstra (Alg. 4 verbatim)", v, false, table,
                  variant_runs);

    v = base;
    v.heuristic_weight = 1.0;
    RunSrpVariant(w, "admissible heuristic (w=1.0)", v, false, table,
                  variant_runs);

    v = base;
    v.detour_slack = -1;
    RunSrpVariant(w, "no geodesic-tube pruning", v, false, table,
                  variant_runs);

    v = base;
    v.use_static_first = true;
    RunSrpVariant(w, "static-first chain + timing pass", v, false, table,
                  variant_runs);

    // Route lifecycle on: identical planning decisions (releases only ever
    // touch fully executed routes), but retained state stays bounded.
    RunSrpVariant(w, "route retirement (release + prune)", base, true,
                  table, variant_runs);
    table.Print(std::cout);
    bench::WriteRunsJson("BENCH_ablation.json", "ablation_options",
                         variant_runs);
  }

  {
    std::cout << "\n(b) robot-assignment policy (SRP planner):\n";
    TableWriter table({"policy", "TC (s)", "makespan", "collision-free"});
    for (auto policy :
         {sim::AssignmentPolicy::kNearest, sim::AssignmentPolicy::kFifo,
          sim::AssignmentPolicy::kLeastWorked}) {
      srp::SrpPlanner planner(w.warehouse.matrix);
      sim::SimulatorOptions sim_options;
      sim_options.assignment = policy;
      sim::Simulator simulator(w.warehouse, planner, sim_options);
      const auto m = simulator.Run(w.tasks);
      table.AddRow({sim::ToString(policy),
                    FormatDouble(m.total_tc_seconds, 3),
                    std::to_string(m.makespan),
                    m.collision_free ? "yes" : "NO"});
    }
    table.Print(std::cout);
  }

  {
    std::cout << "\n(c) batch-priority ordering (one Q_t set of 64 pairs, "
                 "SRP):\n";
    TableWriter table({"order", "planned", "failed", "batch makespan"});
    // Build one dense batch from the first tasks' pickup queries.
    std::vector<core::BatchQuery> batch;
    for (std::size_t i = 0; i < w.tasks.size() && batch.size() < 64; ++i) {
      batch.push_back(core::BatchQuery{
          w.warehouse.robot_homes[i % w.warehouse.robot_homes.size()],
          w.warehouse.rack_access[w.tasks[i].rack_index]});
    }
    for (auto order :
         {core::BatchOrder::kAsGiven, core::BatchOrder::kShortestFirst,
          core::BatchOrder::kLongestFirst}) {
      srp::SrpPlanner planner(w.warehouse.matrix);
      const auto result = core::PlanBatch(planner, 0, batch, order);
      table.AddRow({core::ToString(order), std::to_string(result.planned),
                    std::to_string(result.failed),
                    std::to_string(result.makespan)});
    }
    table.Print(std::cout);
  }
  return 0;
}
