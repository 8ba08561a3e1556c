#ifndef CARP_BENCH_BENCH_COMMON_H_
#define CARP_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/table_writer.h"
#include "flags.h"
#include "sim/experiment_runner.h"
#include "workload/scenario.h"

namespace carp::bench {

/// Command-line options shared by the table/figure reproduction binaries.
///
/// Defaults are sized so the whole bench suite completes on a laptop in
/// minutes; pass --scale=1 to run the paper's full Table II task volumes.
struct BenchOptions {
  double scale = 0.004;  // fraction of the paper's task counts
  int days = 5;
  bool validate = true;
  std::vector<std::string> algorithms = {"SAP", "RP", "TWP", "ACP", "SRP"};
  int sample_points = 50;

  /// Worker threads for speculative batched dispatch (1 = classic serial).
  int threads = 1;

  /// Retire finished routes through the planner's release/prune lifecycle
  /// (SimulatorOptions::retire_routes). Off by default — the paper's
  /// single-day figures measure the accumulate-everything regime.
  bool retire = false;

  static BenchOptions Parse(int argc, char** argv, double default_scale) {
    static constexpr const char* kUsage =
        "options: --scale=F --days=N --threads=N --algos=A,B,... "
        "--no-validate --retire\n";
    BenchOptions o;
    o.scale = default_scale;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (const char* v = FlagValue(arg, "--scale=")) {
        o.scale = std::atof(v);
      } else if (const char* v = FlagValue(arg, "--days=")) {
        o.days = std::atoi(v);
      } else if (const char* v = FlagValue(arg, "--threads=")) {
        o.threads = std::atoi(v);
      } else if (const char* v = FlagValue(arg, "--algos=")) {
        o.algorithms = SplitList(v);
      } else if (arg == "--no-validate") {
        o.validate = false;
      } else if (arg == "--retire") {
        o.retire = true;
      } else if (arg == "--help" || arg == "-h") {
        std::cout << kUsage;
        std::exit(0);
      } else {
        RejectFlag(arg, kUsage);
      }
    }
    return o;
  }
};

inline sim::ExperimentConfig MakeConfig(const std::string& scenario,
                                        const BenchOptions& options) {
  sim::ExperimentConfig config;
  config.scenario = workload::PaperScenario(scenario);
  config.scale = options.scale;
  config.days = options.days;
  config.algorithms = options.algorithms;
  config.simulator.sample_points = options.sample_points;
  config.simulator.validate = options.validate;
  config.simulator.threads = options.threads;
  config.simulator.retire_routes = options.retire;
  return config;
}

inline void PrintHeader(const std::string& title,
                        const BenchOptions& options) {
  std::cout << "=== " << title << " ===\n"
            << "task scale: " << options.scale
            << " of the paper's Table II volumes (use --scale= to change); "
            << "days: " << options.days << "\n\n";
}

/// Prints one progress series (TC in seconds or MC in MiB) as rows of
/// progress -> per-algorithm value, mirroring the figure's curves.
inline void PrintSeries(
    const std::vector<sim::RunMetrics>& runs, int day,
    const std::vector<std::string>& algorithms, bool memory,
    std::ostream& os) {
  TableWriter table([&] {
    std::vector<std::string> header{"progress"};
    for (const auto& a : algorithms) header.push_back(a);
    return header;
  }());

  // Collect the runs of this day, ordered by `algorithms`.
  std::vector<const sim::RunMetrics*> day_runs;
  for (const auto& a : algorithms) {
    for (const auto& r : runs) {
      if (r.day == day && r.algorithm == a) day_runs.push_back(&r);
    }
  }
  if (day_runs.empty()) return;

  std::size_t points = 0;
  for (const auto* r : day_runs) points = std::max(points, r->samples.size());
  for (std::size_t i = 0; i < points; ++i) {
    std::vector<std::string> row;
    double progress = 0;
    for (const auto* r : day_runs) {
      if (i < r->samples.size()) {
        progress = std::max(progress, r->samples[i].progress);
      }
    }
    row.push_back(FormatDouble(progress * 100, 0) + "%");
    for (const auto* r : day_runs) {
      if (i < r->samples.size()) {
        const auto& s = r->samples[i];
        row.push_back(memory ? FormatDouble(
                                   static_cast<double>(s.mc_bytes) /
                                       (1024.0 * 1024.0),
                                   3)
                             : FormatDouble(s.tc_seconds, 4));
      } else {
        row.push_back("");
      }
    }
    table.AddRow(std::move(row));
  }
  table.Print(os);
}

/// Summary block shared by the TC and MC figure binaries: totals, speedup
/// of SRP over each baseline, lifecycle counters, validation status.
inline void PrintRunSummary(const std::vector<sim::RunMetrics>& runs,
                            const std::vector<std::string>& algorithms,
                            std::ostream& os) {
  TableWriter table({"day", "algorithm", "tasks", "TC(s)", "peak MC(MiB)",
                     "end MC(MiB)", "makespan(OG)", "failed", "fallbacks",
                     "speculated", "conflict-rate", "released", "live",
                     "blk-skip%", "collision-free"});
  for (const auto& r : runs) {
    table.AddRow({std::to_string(r.day), r.algorithm,
                  std::to_string(r.total_tasks),
                  FormatDouble(r.total_tc_seconds, 3),
                  FormatDouble(static_cast<double>(r.peak_mc_bytes) /
                                   (1024.0 * 1024.0),
                               3),
                  FormatDouble(static_cast<double>(r.end_retained_bytes) /
                                   (1024.0 * 1024.0),
                               3),
                  std::to_string(r.makespan),
                  std::to_string(r.failed_queries),
                  std::to_string(r.planner_stats.fallbacks),
                  std::to_string(r.planner_stats.speculative_routes),
                  FormatDouble(r.planner_stats.SpeculationConflictRate(), 3),
                  std::to_string(r.routes_released),
                  std::to_string(r.end_live_routes),
                  FormatDouble(r.planner_stats.BlockSkipRate() * 100, 1),
                  r.validated ? (r.collision_free ? "yes" : "NO") : "-"});
  }
  table.Print(os);

  // SRP speedups (paper: 1.4x-37.3x average, up to 227x on snapshots).
  double srp_tc = 0;
  bool have_srp = false;
  for (const auto& r : runs) {
    if (r.algorithm == "SRP") {
      srp_tc += r.total_tc_seconds;
      have_srp = true;
    }
  }
  if (!have_srp || srp_tc <= 0) return;
  os << "\nSRP total-TC speedup vs:";
  for (const auto& a : algorithms) {
    if (a == "SRP") continue;
    double tc = 0;
    for (const auto& r : runs) {
      if (r.algorithm == a) tc += r.total_tc_seconds;
    }
    if (tc > 0) os << "  " << a << " " << FormatDouble(tc / srp_tc, 1) << "x";
  }
  os << "\n";
}

/// Writes the runs as machine-readable JSON (BENCH_*.json convention).
/// Every run row carries the route-lifecycle columns — end-of-run
/// retained_bytes and live_routes plus the released/pruned counters — so
/// downstream tooling can compare the accumulate-everything and retiring
/// regimes without re-parsing the printed tables.
inline void WriteRunsJson(const std::string& path, const std::string& bench,
                          const std::vector<sim::RunMetrics>& runs,
                          std::ostream& echo = std::cout) {
  std::ofstream out(path);
  if (!out) {
    echo << "cannot write " << path << "\n";
    return;
  }
  out << "{\n  \"bench\": \"" << bench << "\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const sim::RunMetrics& r = runs[i];
    out << "    {\"scenario\": \"" << r.scenario << "\", \"day\": " << r.day
        << ", \"algorithm\": \"" << r.algorithm << "\""
        << ", \"tasks\": " << r.total_tasks
        << ", \"finished\": " << r.finished_tasks
        << ", \"failed\": " << r.failed_queries
        << ", \"tc_seconds\": " << r.total_tc_seconds
        << ", \"makespan\": " << r.makespan
        << ", \"peak_mc_bytes\": " << r.peak_mc_bytes
        << ", \"retained_bytes\": " << r.end_retained_bytes
        << ", \"live_routes\": " << r.end_live_routes
        << ", \"peak_live_routes\": " << r.peak_live_routes
        << ", \"released\": " << r.routes_released
        << ", \"pruned\": " << r.planner_stats.routes_pruned
        << ", \"candidates_examined\": " << r.planner_stats.candidates_examined
        << ", \"blocks_scanned\": " << r.planner_stats.blocks_scanned
        << ", \"blocks_skipped\": " << r.planner_stats.blocks_skipped
        << ", \"candidates_pruned_by_summary\": "
        << r.planner_stats.candidates_pruned_by_summary
        << ", \"buckets_erased\": " << r.planner_stats.buckets_erased
        << ", \"collision_free\": "
        << (r.validated ? (r.collision_free ? "true" : "false") : "null")
        << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  echo << "\nwrote " << path << "\n";
}

}  // namespace carp::bench

#endif  // CARP_BENCH_BENCH_COMMON_H_
