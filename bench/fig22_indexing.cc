// Reproduces Fig. 22: the need for slope-based indexing.
//   (a) TC breakdown of SRP *without* the index over one day: the
//       intra-strip stage (collision detection + backtracking) dominates.
//   (b) intra-strip TC with vs. without the index (paper: ~50% reduction).

#include <iostream>

#include "bench_common.h"
#include "layout/layout_generator.h"
#include "sim/simulator.h"
#include "srp/srp_planner.h"
#include "workload/task_generator.h"

namespace {

struct SrpRun {
  carp::srp::SrpTimeBreakdown breakdown;
  carp::core::PlannerStats stats;
  double total_tc = 0;
};

SrpRun RunOneDay(const carp::layout::Warehouse& warehouse,
                 const std::vector<carp::workload::DeliveryTask>& tasks,
                 bool use_index, bool use_summaries) {
  carp::srp::SrpPlannerOptions options;
  options.use_slope_index = use_index;
  options.use_summary_pruning = use_summaries;
  options.enable_time_breakdown = true;
  carp::srp::SrpPlanner planner(warehouse.matrix, options);
  carp::sim::SimulatorOptions sim_options;
  sim_options.validate = false;  // identical work for both variants
  carp::sim::Simulator sim(warehouse, planner, sim_options);
  const auto metrics = sim.Run(tasks);

  SrpRun run;
  run.breakdown = planner.time_breakdown();
  run.stats = planner.stats();
  run.total_tc = metrics.total_tc_seconds;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace carp;
  bench::BenchOptions options =
      bench::BenchOptions::Parse(argc, argv, 0.01);
  bench::PrintHeader("Fig. 22: need for slope-based indexing (W-2, day 1)",
                     options);

  const auto scenario = workload::ScaledScenario(
      workload::PaperScenario("W-2"), options.scale);
  const layout::Warehouse warehouse = GenerateWarehouse(scenario.layout);
  workload::TaskGeneratorOptions topts;
  topts.task_count = scenario.daily_tasks[0];
  topts.day_length = scenario.day_length;
  topts.seed = scenario.seed * 1000;
  const auto tasks = workload::GenerateTasks(
      warehouse, workload::ArrivalProfile::DoubleSurge(), topts);
  std::cout << "tasks: " << tasks.size() << "\n\n";

  const SrpRun naive =
      RunOneDay(warehouse, tasks, /*use_index=*/false, /*use_summaries=*/false);
  const SrpRun naive_blocked =
      RunOneDay(warehouse, tasks, /*use_index=*/false, /*use_summaries=*/true);
  const SrpRun indexed =
      RunOneDay(warehouse, tasks, /*use_index=*/true, /*use_summaries=*/false);
  const SrpRun indexed_blocked =
      RunOneDay(warehouse, tasks, /*use_index=*/true, /*use_summaries=*/true);

  std::cout << "(a) TC breakdown of SRP without slope-based indexing:\n";
  {
    TableWriter table({"stage", "seconds", "share"});
    const double total = naive.breakdown.inter_seconds +
                         naive.breakdown.intra_seconds +
                         naive.breakdown.conversion_seconds;
    auto row = [&](const char* stage, double s) {
      table.AddRow({stage, FormatDouble(s, 4),
                    FormatDouble(total > 0 ? s / total * 100 : 0, 1) + "%"});
    };
    row("inter-strip planning", naive.breakdown.inter_seconds);
    row("intra-strip planning", naive.breakdown.intra_seconds);
    row("strip<->grid conversion", naive.breakdown.conversion_seconds);
    table.Print(std::cout);
  }

  std::cout << "\n(b) intra-strip TC by store variant (slope index of "
               "Sec. V-D x block summaries of DESIGN.md 2f):\n";
  {
    TableWriter table({"variant", "intra TC (s)", "pairwise judgements",
                       "blocks skipped", "summary-pruned", "total TC (s)"});
    auto row = [&](const char* name, const SrpRun& r) {
      table.AddRow({name, FormatDouble(r.breakdown.intra_seconds, 4),
                    std::to_string(r.stats.candidates_examined),
                    std::to_string(r.stats.blocks_skipped),
                    std::to_string(r.stats.candidates_pruned_by_summary),
                    FormatDouble(r.total_tc, 4)});
    };
    row("w/o index, flat scan (Sec. V-B)", naive);
    row("w/o index, block summaries", naive_blocked);
    row("w/ slope index, flat scan", indexed);
    row("w/ slope index, block summaries", indexed_blocked);
    table.Print(std::cout);
    if (naive.breakdown.intra_seconds > 0) {
      std::cout << "\nintra-strip TC reduced by the index alone: "
                << FormatDouble((1.0 - indexed.breakdown.intra_seconds /
                                           naive.breakdown.intra_seconds) *
                                    100,
                                1)
                << "% (paper: ~50%).\n";
    }
    auto pct_fewer = [](std::int64_t with, std::int64_t without) {
      return without > 0
                 ? (1.0 - static_cast<double>(with) /
                              static_cast<double>(without)) *
                       100
                 : 0.0;
    };
    std::cout << "block summaries cut pairwise judgements by "
              << FormatDouble(
                     pct_fewer(naive_blocked.stats.candidates_examined,
                               naive.stats.candidates_examined),
                     1)
              << "% (naive store) / "
              << FormatDouble(
                     pct_fewer(indexed_blocked.stats.candidates_examined,
                               indexed.stats.candidates_examined),
                     1)
              << "% (indexed store).\n";
  }
  return 0;
}
