// Micro-benchmark: the request-stream service front-end (src/service/)
// over PlanBatch's speculative validate-then-commit pipeline.
//
// A day-shaped stream of rack-access -> picker requests (double-surge
// arrival profile) is admitted to a PlannerService and drained wave by
// wave, with route retirement and cadence pruning on. Every backend runs
// two variants — serial (threads=1) and speculative (threads=4) — and the
// run reports wall-clock, per-request latency percentiles, queue delay,
// speculation counters, collision-freedom over the *entire archived
// history*, and whether the speculative variant committed exactly the
// serial variant's routes.
//
// Equivalence gating (--strict exits nonzero; wired into CI bench-smoke):
//   - every variant's full archive must validate collision-free;
//   - serial-equivalence is enforced where the speculative query phase is
//     exact (SAP, SRP). RP/TWP/ACP's query phase is a documented
//     conservative stand-in for their serial shortcutting (no joint
//     replanning / wait-insertion), so their parallel archives may
//     legitimately differ from serial — still collision-free — and the
//     column is reported but not gated.
//
// Usage: micro_service [--requests=N] [--day=T] [--threads=N]
//                      [--algos=A,B,...] [--strict] [--out=FILE]

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "baselines/planner_factory.h"
#include "common/rng.h"
#include "common/table_writer.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/collision.h"
#include "flags.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "service/planner_service.h"
#include "workload/arrival_profile.h"

namespace carp {
namespace {

std::vector<service::PlanRequest> MakeRequests(const layout::Warehouse& w,
                                               std::size_t count,
                                               TimeStep day_length,
                                               std::uint64_t seed) {
  Rng arrival_rng(seed);
  const std::vector<TimeStep> arrivals =
      workload::ArrivalProfile::DoubleSurge().SampleArrivals(
          static_cast<std::int64_t>(count), day_length, arrival_rng);

  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> rack(0,
                                                  w.rack_access.size() - 1);
  std::vector<std::size_t> picker_order(w.pickers.size());
  for (std::size_t i = 0; i < picker_order.size(); ++i) picker_order[i] = i;
  std::shuffle(picker_order.begin(), picker_order.end(), rng);

  std::vector<service::PlanRequest> requests;
  requests.reserve(count);
  while (requests.size() < count) {
    const GridCoord origin = w.rack_access[rack(rng)];
    const GridCoord dest =
        w.pickers[picker_order[requests.size() % picker_order.size()]];
    if (origin == dest) continue;
    service::PlanRequest r;
    r.id = static_cast<std::int64_t>(requests.size());
    r.release_time = arrivals[requests.size()];
    r.origin = origin;
    r.destination = dest;
    requests.push_back(r);
  }
  return requests;
}

struct Variant {
  std::string name;
  int threads;
};

struct Row {
  std::string algorithm;
  std::string variant;
  int threads = 0;
  double seconds = 0;
  std::int64_t waves = 0;
  std::int64_t planned = 0;
  std::int64_t failed = 0;
  double latency_p50 = 0;
  double latency_p95 = 0;
  double latency_p99 = 0;
  double queue_delay_p50 = 0;
  double queue_delay_p99 = 0;
  std::int64_t retired = 0;
  std::int64_t prunes = 0;
  std::int64_t speculated = 0;
  std::int64_t invalidated = 0;
  bool collision_free = false;
  bool serial_equivalent = true;
  std::vector<core::Route> archive;
};

// Backends whose speculative query phase is their exact serial search, so
// the parallel pipeline is bit-identical to the serial loop (see the
// GridPlannerBase contract and DESIGN.md §2b).
bool ExactSpeculation(const std::string& algorithm) {
  return algorithm == "SAP" || algorithm.rfind("SRP", 0) == 0;
}

Row RunOne(const layout::Warehouse& warehouse, const std::string& algorithm,
           const Variant& variant,
           const std::vector<service::PlanRequest>& requests) {
  auto planner = baselines::MakePlanner(algorithm, warehouse.matrix);
  if (planner == nullptr) {
    std::cerr << "unknown algorithm: " << algorithm << "\n";
    std::exit(2);
  }

  service::ServiceOptions options;
  options.threads = variant.threads;
  options.retire_routes = true;
  options.prune_every = 512;
  options.prune_slack = 64;

  service::PlannerService svc(*planner, options);
  for (const auto& r : requests) svc.Submit(r);

  Stopwatch watch;
  watch.Start();
  svc.RunUntilDrained();
  watch.Stop();

  const service::ServiceMetrics& m = svc.metrics();
  Row row;
  row.algorithm = algorithm;
  row.variant = variant.name;
  row.threads = variant.threads;
  row.seconds = watch.elapsed_seconds();
  row.waves = m.waves;
  row.planned = m.planned;
  row.failed = m.failed;
  row.latency_p50 = m.LatencyMsPercentile(0.50);
  row.latency_p95 = m.LatencyMsPercentile(0.95);
  row.latency_p99 = m.LatencyMsPercentile(0.99);
  row.queue_delay_p50 = m.QueueDelayPercentile(0.50);
  row.queue_delay_p99 = m.QueueDelayPercentile(0.99);
  row.retired = m.routes_retired;
  row.prunes = m.prunes;
  row.speculated = m.speculated;
  row.invalidated = m.invalidated;
  // The archive is the service's whole committed history (retirement only
  // releases planner state) — the collision oracle audits all of it.
  row.collision_free = core::ValidateRoutes(svc.archive());
  row.archive = svc.archive();
  return row;
}

}  // namespace
}  // namespace carp

int main(int argc, char** argv) {
  using namespace carp;

  // Dense by default (several releases per timestep at the surges) so the
  // waves are big enough to engage the speculative pipeline.
  std::size_t request_count = 240;
  TimeStep day_length = 64;
  int threads = 4;
  bool strict = false;
  std::string out_path = "BENCH_service.json";
  std::vector<std::string> algorithms = {"SAP", "RP", "TWP", "ACP", "SRP"};
  constexpr const char* kUsage =
      "options: --requests=N --day=T --threads=N --algos=A,B,... --strict "
      "--out=FILE\n";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const char* v = bench::FlagValue(arg, "--requests=")) {
      request_count = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = bench::FlagValue(arg, "--day=")) {
      day_length = std::atoll(v);
    } else if (const char* v = bench::FlagValue(arg, "--threads=")) {
      threads = std::atoi(v);
    } else if (const char* v = bench::FlagValue(arg, "--algos=")) {
      algorithms = bench::SplitList(v);
    } else if (arg == "--strict") {
      strict = true;
    } else if (const char* v = bench::FlagValue(arg, "--out=")) {
      out_path = v;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else {
      bench::RejectFlag(arg, kUsage);
    }
  }

  const layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetByName("W-1"));
  const auto requests =
      MakeRequests(warehouse, request_count, day_length, /*seed=*/2023);

  const std::vector<Variant> variants = {
      {"serial", 1},
      {"spec", threads},
  };

  std::cout << "=== request-stream service front-end (W-1) ===\n"
            << "requests: " << request_count << " over " << day_length
            << " timesteps (double-surge); retire+prune on; "
            << "hardware concurrency: " << ThreadPool::DefaultThreadCount()
            << "\n\n";

  TableWriter table({"algorithm", "variant", "threads", "seconds", "waves",
                     "planned", "failed", "lat-p50(ms)", "lat-p99(ms)",
                     "qdelay-p99", "retired", "conflict-rate",
                     "collision-free", "serial-equal"});
  std::vector<Row> rows;
  bool all_ok = true;
  for (const auto& algorithm : algorithms) {
    std::vector<Row> algo_rows;
    for (const auto& variant : variants) {
      algo_rows.push_back(RunOne(warehouse, algorithm, variant, requests));
    }
    const std::vector<core::Route>& serial_archive = algo_rows[0].archive;
    for (std::size_t v = 1; v < algo_rows.size(); ++v) {
      algo_rows[v].serial_equivalent = serial_archive == algo_rows[v].archive;
    }
    for (std::size_t v = 0; v < algo_rows.size(); ++v) {
      Row& row = algo_rows[v];
      const bool gate_serial = ExactSpeculation(algorithm);
      all_ok = all_ok && row.collision_free &&
               (!gate_serial || row.serial_equivalent);
      const double conflict_rate =
          row.speculated == 0 ? 0.0
                              : static_cast<double>(row.invalidated) /
                                    static_cast<double>(row.speculated);
      table.AddRow(
          {row.algorithm, row.variant, std::to_string(row.threads),
           FormatDouble(row.seconds, 3), std::to_string(row.waves),
           std::to_string(row.planned), std::to_string(row.failed),
           FormatDouble(row.latency_p50, 3), FormatDouble(row.latency_p99, 3),
           FormatDouble(row.queue_delay_p99, 0), std::to_string(row.retired),
           FormatDouble(conflict_rate, 4),
           row.collision_free ? "yes" : "NO",
           v == 0 ? "-" : (row.serial_equivalent ? "yes" : "no")});
      rows.push_back(std::move(row));
    }
  }
  table.Print(std::cout);

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"service\",\n  \"warehouse\": \"W-1\",\n"
      << "  \"requests\": " << request_count
      << ",\n  \"day_length\": " << day_length
      << ",\n  \"hardware_concurrency\": " << ThreadPool::DefaultThreadCount()
      << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"algorithm\": \"" << r.algorithm << "\", \"variant\": \""
        << r.variant << "\", \"threads\": " << r.threads
        << ", \"seconds\": " << r.seconds << ", \"waves\": " << r.waves
        << ", \"planned\": " << r.planned << ", \"failed\": " << r.failed
        << ", \"latency_ms_p50\": " << r.latency_p50
        << ", \"latency_ms_p95\": " << r.latency_p95
        << ", \"latency_ms_p99\": " << r.latency_p99
        << ", \"queue_delay_p50\": " << r.queue_delay_p50
        << ", \"queue_delay_p99\": " << r.queue_delay_p99
        << ", \"retired\": " << r.retired << ", \"prunes\": " << r.prunes
        << ", \"speculated\": " << r.speculated
        << ", \"invalidated\": " << r.invalidated
        << ", \"collision_free\": " << (r.collision_free ? "true" : "false")
        << ", \"serial_equivalent\": "
        << (r.serial_equivalent ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << out_path << "\n";

  if (strict && !all_ok) {
    std::cerr << "\nSTRICT FAILURE: a variant missed a conflict, or an "
                 "exact-speculation backend diverged from serial\n";
    return 1;
  }
  return 0;
}
