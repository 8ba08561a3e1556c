// Long-run route lifecycle bench: a multi-day W-2 workload through one
// *shared* SRP planner, day by day, with each day's arrivals offset onto a
// continuous clock. A day starts one day length after the previous one, or
// at the previous day's makespan when that day overran: an earlier start
// would plan behind routes the previous day already released, which the
// ReleaseRoute contract forbids. The collision-free column validates the
// concatenated history of every day so far. With retirement on (the
// default) finished routes are released and expired state pruned on an
// epoch cadence, so retained bytes and per-query latency must stay flat
// across days; --no-release disables the lifecycle and reproduces the
// unbounded accumulate-everything regime.
//
// Emits BENCH_longrun.json. Usage:
//   micro_longrun [--scale=F] [--days=N] [--threads=N] [--no-release]
//                 [--no-validate] [--out=FILE]

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/table_writer.h"
#include "layout/layout_generator.h"
#include "sim/simulator.h"
#include "srp/srp_planner.h"
#include "workload/scenario.h"
#include "workload/task_generator.h"

namespace carp {
namespace {

struct DayRow {
  int day = 0;
  std::int64_t tasks = 0;
  double tc_seconds = 0;
  double avg_query_us = 0;
  std::size_t retained_bytes = 0;
  std::size_t live_routes = 0;
  std::size_t segments = 0;
  std::int64_t released = 0;
  std::int64_t pruned = 0;
  bool validated = false;
  bool collision_free = false;
};

}  // namespace
}  // namespace carp

int main(int argc, char** argv) {
  using namespace carp;

  double scale = 0.004;
  int days = 5;
  int threads = 1;
  bool release = true;
  bool validate = true;
  std::string out_path = "BENCH_longrun.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      scale = std::atof(arg.c_str() + sizeof("--scale=") - 1);
    } else if (arg.rfind("--days=", 0) == 0) {
      days = std::atoi(arg.c_str() + sizeof("--days=") - 1);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.c_str() + sizeof("--threads=") - 1);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(sizeof("--out=") - 1);
    } else if (arg == "--no-release") {
      release = false;
    } else if (arg == "--no-validate") {
      validate = false;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "options: --scale=F --days=N --threads=N --no-release "
                   "--no-validate --out=FILE\n";
      return 0;
    }
  }

  const auto scenario =
      workload::ScaledScenario(workload::PaperScenario("W-2"), scale);
  const layout::Warehouse warehouse = GenerateWarehouse(scenario.layout);

  std::cout << "=== long-run route lifecycle (SRP, W-2, " << days
            << " days, retirement " << (release ? "ON" : "OFF (--no-release)")
            << ") ===\n"
            << "task scale: " << scale
            << "; day length: " << scenario.day_length << " steps\n\n";

  srp::SrpPlanner planner(warehouse.matrix);
  sim::SimulatorOptions sim_options;
  sim_options.retire_routes = release;
  sim_options.validate = validate;
  sim_options.threads = threads;
  sim::Simulator sim(warehouse, planner, sim_options);

  TableWriter table({"day", "tasks", "TC(s)", "avg query(us)",
                     "retained(KiB)", "peak live", "peak segments",
                     "released", "pruned", "collision-free"});
  std::vector<DayRow> rows;
  core::PlannerStats prev_stats;
  TimeStep day_start = 0;
  for (int day = 0; day < days; ++day) {
    workload::TaskGeneratorOptions topts;
    topts.task_count = scenario.daily_tasks[static_cast<std::size_t>(day) %
                                            scenario.daily_tasks.size()];
    topts.day_length = scenario.day_length;
    topts.seed = scenario.seed * 1000 + static_cast<std::uint64_t>(day);
    auto tasks = workload::GenerateTasks(
        warehouse, workload::ArrivalProfile::DoubleSurge(), topts);
    for (auto& t : tasks) t.arrival += day_start;

    const auto m = sim.Run(tasks);
    day_start = std::max(day_start + scenario.day_length, m.makespan);
    const core::PlannerStats stats = planner.stats();
    const std::int64_t day_queries =
        std::max<std::int64_t>(1, stats.queries - prev_stats.queries);

    DayRow row;
    row.day = day + 1;
    row.tasks = m.total_tasks;
    row.tc_seconds = m.total_tc_seconds;
    row.avg_query_us =
        m.total_tc_seconds * 1e6 / static_cast<double>(day_queries);
    row.retained_bytes = m.end_retained_bytes;
    // End-of-day reads happen after the day's release/prune sweeps, when
    // live_routes/segments have drained to ~0 — report the working-set
    // peaks instead (per-day for routes; lifetime-so-far for segments,
    // which converges when days look alike).
    row.live_routes = m.peak_live_routes;
    row.segments = planner.peak_segment_count();
    row.released = stats.routes_released - prev_stats.routes_released;
    row.pruned = stats.routes_pruned - prev_stats.routes_pruned;
    row.validated = m.validated;
    row.collision_free = m.collision_free;
    prev_stats = stats;

    table.AddRow({std::to_string(row.day), std::to_string(row.tasks),
                  FormatDouble(row.tc_seconds, 3),
                  FormatDouble(row.avg_query_us, 1),
                  FormatDouble(
                      static_cast<double>(row.retained_bytes) / 1024.0, 1),
                  std::to_string(row.live_routes),
                  std::to_string(row.segments),
                  std::to_string(row.released), std::to_string(row.pruned),
                  row.validated ? (row.collision_free ? "yes" : "NO") : "-"});
    rows.push_back(row);
  }
  table.Print(std::cout);

  // The acceptance bound of the retiring regime: retained bytes must
  // *plateau*, not grow linearly in days. End-of-day retained includes the
  // lifetime capacity high-water (stores keep capacity across prunes — see
  // ShrinkIfSlack) and the peak search frontier, both of which legitimately
  // step up when a heavier-than-before day arrives; what must not happen is
  // late days that look like earlier ones still adding state. So for runs
  // of >= 3 days the bound is: the final two days add <= 25% retained
  // (no-release accumulates every day's routes and fails this by a wide
  // margin). Shorter runs fall back to end <= 2x day-1.
  bool bounded = false;
  double growth = 0.0;
  if (rows.size() >= 3) {
    const auto base = rows[rows.size() - 3].retained_bytes;
    growth = static_cast<double>(rows.back().retained_bytes) /
             static_cast<double>(std::max<std::size_t>(1, base));
    bounded = growth <= 1.25;
    std::cout << "\nretained bytes day " << rows.size() << " vs day "
              << rows.size() - 2 << ": " << growth << "x -> "
              << (bounded ? "plateaued (bounded)" : "UNBOUNDED") << "\n";
  } else if (!rows.empty()) {
    growth = static_cast<double>(rows.back().retained_bytes) /
             static_cast<double>(
                 std::max<std::size_t>(1, rows.front().retained_bytes));
    bounded = growth <= 2.0;
    std::cout << "\nretained bytes day " << rows.size() << " vs day 1: "
              << growth << "x -> " << (bounded ? "bounded" : "UNBOUNDED")
              << "\n";
  }

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"longrun\",\n  \"scenario\": \"W-2\",\n"
      << "  \"mode\": \"" << (release ? "release" : "no-release") << "\",\n"
      << "  \"days\": " << days << ",\n  \"bounded\": "
      << (bounded ? "true" : "false") << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DayRow& r = rows[i];
    out << "    {\"day\": " << r.day << ", \"tasks\": " << r.tasks
        << ", \"tc_seconds\": " << r.tc_seconds
        << ", \"avg_query_us\": " << r.avg_query_us
        << ", \"retained_bytes\": " << r.retained_bytes
        << ", \"peak_live_routes\": " << r.live_routes
        << ", \"peak_segments\": " << r.segments
        << ", \"released\": " << r.released << ", \"pruned\": " << r.pruned
        << ", \"collision_free\": "
        << (r.validated ? (r.collision_free ? "true" : "false") : "null")
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
