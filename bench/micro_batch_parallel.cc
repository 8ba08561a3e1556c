// Micro-benchmark: speculative parallel batch planning (core::PlanBatch's
// validate-then-commit pipeline) across thread counts on the paper's three
// warehouses. For each warehouse a fixed batch of rack-access -> picker
// queries is planned by a fresh SRP planner at threads = 1 (the classic
// serial prioritized loop) and at 2/4/8 workers ("spec": speculative
// queries on the pool, validate-then-commit on the calling thread). The
// run reports wall-clock (the median of 3 repeats, each on a fresh
// planner), speedup over serial, the speculation conflict rate, whether
// the committed set validates collision-free, and whether each parallel
// run matched the serial loop. The last column is informational:
// speculative queries plan against the wave-start snapshot, so in one
// large contended batch the accepted routes can legitimately differ from
// the serial loop's (still collision-free); see bench/micro_service for
// the regime where serial equality is gated.
//
// A second table sweeps the batch size on W-2 at 3 workers (the service's
// worker count): the same 96 queries are planned as consecutive batches of
// 2, 4, ..., 32, serially and speculatively (one wave per batch, on one
// persistent pool), and it reports the median time per batch. PlanBatch
// only speculates a batch that fills one auto wave (16 queries at 3
// workers); the sweep shows whether speculation already wins below that
// threshold on the host it runs on.
//
// Emits BENCH_batch_parallel.json next to the printed tables. Usage:
//   micro_batch_parallel [--queries=N] [--out=FILE]

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/table_writer.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/batch_planner.h"
#include "core/collision.h"
#include "flags.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "srp/srp_planner.h"

namespace carp {
namespace {

std::vector<core::BatchQuery> MakeQueries(const layout::Warehouse& w,
                                          std::size_t count,
                                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> rack(0,
                                                  w.rack_access.size() - 1);
  // Destinations cycle over a shuffled picker order: a dispatcher spreads
  // simultaneous pickups across stations, so a same-instant batch rarely
  // funnels many robots into one picker cell.
  std::vector<std::size_t> picker_order(w.pickers.size());
  for (std::size_t i = 0; i < picker_order.size(); ++i) picker_order[i] = i;
  std::shuffle(picker_order.begin(), picker_order.end(), rng);
  std::vector<core::BatchQuery> queries;
  queries.reserve(count);
  while (queries.size() < count) {
    const GridCoord origin = w.rack_access[rack(rng)];
    const GridCoord dest =
        w.pickers[picker_order[queries.size() % picker_order.size()]];
    if (origin == dest) continue;
    queries.push_back(core::BatchQuery{origin, dest});
  }
  return queries;
}

struct Row {
  std::string warehouse;
  std::string variant;
  std::size_t queries = 0;
  int threads = 0;
  double seconds = 0;
  double speedup = 1.0;
  std::int64_t planned = 0;
  std::int64_t speculated = 0;
  std::int64_t invalidated = 0;
  double conflict_rate = 0;
  std::size_t retained_bytes = 0;
  std::size_t live_routes = 0;
  bool collision_free = false;
  bool serial_equal = true;
  std::vector<core::Route> committed;
};

constexpr int kRepeats = 3;

// Median wall time of `kRepeats` calls of `run`.
double MedianSeconds(const std::function<double()>& run) {
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) samples.push_back(run());
  return Percentile(samples, 0.5);
}

Row RunOne(const layout::Warehouse& warehouse, const std::string& name,
           const std::vector<core::BatchQuery>& queries, int threads) {
  core::BatchPlanOptions options;
  options.threads = threads;

  // Every repeat plans on a fresh planner and commits the same routes;
  // the counters are read from the last one.
  std::unique_ptr<srp::SrpPlanner> planner;
  core::BatchResult result;
  const double seconds = MedianSeconds([&] {
    planner = std::make_unique<srp::SrpPlanner>(warehouse.matrix);
    Stopwatch watch;
    watch.Start();
    result = core::PlanBatch(*planner, /*t=*/0, queries, options);
    watch.Stop();
    return watch.elapsed_seconds();
  });

  Row row;
  row.warehouse = name;
  row.variant = threads == 1 ? "serial" : "spec";
  row.queries = queries.size();
  row.threads = threads;
  row.seconds = seconds;
  row.planned = result.planned;
  row.speculated = result.speculated;
  row.invalidated = result.invalidated;
  row.conflict_rate = result.ConflictRate();
  row.retained_bytes = planner->RetainedBytes();
  row.live_routes = planner->live_routes();
  row.collision_free = core::ValidateRoutes(planner->committed_routes());
  row.committed = planner->committed_routes();
  return row;
}

struct SweepRow {
  std::size_t batch = 0;
  double serial_us = 0;  // median time per batch
  double spec_us = 0;
  std::int64_t speculated = 0;
  std::int64_t invalidated = 0;
  bool collision_free = false;
};

// Plans `queries` as consecutive batches of `batch` queries on a fresh
// planner, serially or speculatively on `pool` (one wave per batch), and
// returns the total wall time.
double PlanInBatches(const layout::Warehouse& warehouse,
                     const std::vector<core::BatchQuery>& queries,
                     std::size_t batch, ThreadPool* pool, SweepRow& row) {
  srp::SrpPlanner planner(warehouse.matrix);
  core::BatchPlanOptions options;
  if (pool != nullptr) {
    options.threads = pool->size();
    options.pool = pool;
    options.wave_size = static_cast<int>(batch);
  }
  row.speculated = 0;
  row.invalidated = 0;
  Stopwatch watch;
  watch.Start();
  for (std::size_t begin = 0; begin < queries.size(); begin += batch) {
    const std::vector<core::BatchQuery> chunk(
        queries.begin() + static_cast<std::ptrdiff_t>(begin),
        queries.begin() + static_cast<std::ptrdiff_t>(
                              std::min(begin + batch, queries.size())));
    const auto result = core::PlanBatch(planner, /*t=*/0, chunk, options);
    row.speculated += result.speculated;
    row.invalidated += result.invalidated;
  }
  watch.Stop();
  row.collision_free = core::ValidateRoutes(planner.committed_routes());
  return watch.elapsed_seconds();
}

}  // namespace
}  // namespace carp

int main(int argc, char** argv) {
  using namespace carp;

  constexpr const char* kUsage = "options: --queries=N --out=FILE\n";
  std::size_t query_count = 240;
  std::string out_path = "BENCH_batch_parallel.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const char* v = bench::FlagValue(arg, "--queries=")) {
      query_count = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = bench::FlagValue(arg, "--out=")) {
      out_path = v;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else {
      bench::RejectFlag(arg, kUsage);
    }
  }

  const std::vector<std::string> names = {"W-1", "W-2", "W-3"};
  const std::vector<int> thread_counts = {1, 2, 4, 8};

  std::cout << "=== speculative parallel batch planning (SRP) ===\n"
            << "batch: " << query_count
            << " rack->picker queries per warehouse; hardware concurrency: "
            << ThreadPool::DefaultThreadCount() << "\n\n";

  TableWriter table({"warehouse", "variant", "threads", "seconds", "speedup",
                     "planned", "speculated", "invalidated", "conflict-rate",
                     "retained(KiB)", "live", "collision-free",
                     "serial-equal"});
  std::vector<Row> rows;
  for (const auto& name : names) {
    const layout::Warehouse warehouse =
        layout::GenerateWarehouse(layout::PresetByName(name));
    const auto queries = MakeQueries(warehouse, query_count, /*seed=*/2023);

    double serial_seconds = 0;
    std::vector<core::Route> serial_committed;
    for (int threads : thread_counts) {
      // threads = 1 is the classic serial loop.
      Row row = RunOne(warehouse, name, queries, threads);
      if (threads == 1) {
        serial_seconds = row.seconds;
        serial_committed = row.committed;
      } else {
        row.serial_equal = serial_committed == row.committed;
      }
      row.speedup = row.seconds > 0 ? serial_seconds / row.seconds : 0.0;
      table.AddRow({row.warehouse, row.variant, std::to_string(row.threads),
                    FormatDouble(row.seconds, 4),
                    FormatDouble(row.speedup, 2),
                    std::to_string(row.planned),
                    std::to_string(row.speculated),
                    std::to_string(row.invalidated),
                    FormatDouble(row.conflict_rate, 4),
                    FormatDouble(
                        static_cast<double>(row.retained_bytes) / 1024.0, 1),
                    std::to_string(row.live_routes),
                    row.collision_free ? "yes" : "NO",
                    row.serial_equal ? "yes" : "NO"});
      rows.push_back(std::move(row));
    }
  }
  table.Print(std::cout);

  // ---- Batch-size sweep: serial vs one speculative wave per batch.
  constexpr int kSweepThreads = 3;
  constexpr std::size_t kSweepQueries = 96;
  // PlanBatch's auto wave size at kSweepThreads workers (batch_planner.h).
  const std::size_t auto_wave = std::max<std::size_t>(16, 4 * kSweepThreads);
  const layout::Warehouse w2 =
      layout::GenerateWarehouse(layout::PresetByName("W-2"));
  const auto sweep_queries = MakeQueries(w2, kSweepQueries, /*seed=*/2024);
  ThreadPool pool(kSweepThreads);
  pool.Submit([] {});  // start the workers outside the timed region
  pool.WaitIdle();

  std::cout << "\n=== batch-size sweep (SRP, W-2, " << kSweepThreads
            << " workers, " << kSweepQueries
            << " queries in consecutive batches) ===\n\n";
  TableWriter sweep_table({"batch", "serial(us/batch)", "spec(us/batch)",
                           "spec/serial", "speculated", "invalidated",
                           "collision-free"});
  std::vector<SweepRow> sweep;
  std::size_t crossover = 0;  // smallest batch where speculation wins
  for (std::size_t batch : {2u, 4u, 8u, 16u, 32u}) {
    SweepRow row;
    row.batch = batch;
    const double batches = static_cast<double>(kSweepQueries / batch);
    row.serial_us = MedianSeconds([&] {
      return PlanInBatches(w2, sweep_queries, batch, nullptr, row);
    }) * 1e6 / batches;
    const bool serial_free = row.collision_free;
    row.spec_us = MedianSeconds([&] {
      return PlanInBatches(w2, sweep_queries, batch, &pool, row);
    }) * 1e6 / batches;
    row.collision_free = row.collision_free && serial_free;
    if (crossover == 0 && row.spec_us < row.serial_us) crossover = batch;
    sweep_table.AddRow(
        {std::to_string(batch), FormatDouble(row.serial_us, 1),
         FormatDouble(row.spec_us, 1),
         FormatDouble(row.serial_us > 0 ? row.spec_us / row.serial_us : 0, 2),
         std::to_string(row.speculated), std::to_string(row.invalidated),
         row.collision_free ? "yes" : "NO"});
    sweep.push_back(row);
  }
  sweep_table.Print(std::cout);
  const bool threshold_ok = crossover == 0 || crossover >= auto_wave;
  std::cout << "\nspeculation first wins at batch "
            << (crossover == 0 ? std::string("(never)")
                               : std::to_string(crossover))
            << "; one-wave threshold " << auto_wave << " is "
            << (threshold_ok ? "not above" : "ABOVE") << " the crossover\n";

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"batch_parallel\",\n  \"planner\": \"SRP\",\n"
      << "  \"hardware_concurrency\": " << ThreadPool::DefaultThreadCount()
      << ",\n  \"repeats\": " << kRepeats << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"warehouse\": \"" << r.warehouse << "\", \"variant\": \""
        << r.variant << "\", \"queries\": " << r.queries
        << ", \"threads\": " << r.threads
        << ", \"seconds\": " << r.seconds << ", \"speedup\": " << r.speedup
        << ", \"planned\": " << r.planned
        << ", \"speculated\": " << r.speculated
        << ", \"invalidated\": " << r.invalidated
        << ", \"conflict_rate\": " << r.conflict_rate
        << ", \"retained_bytes\": " << r.retained_bytes
        << ", \"live_routes\": " << r.live_routes
        << ", \"collision_free\": " << (r.collision_free ? "true" : "false")
        << ", \"serial_equal\": " << (r.serial_equal ? "true" : "false")
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"sweep\": {\"warehouse\": \"W-2\", \"threads\": "
      << kSweepThreads << ", \"queries\": " << kSweepQueries
      << ", \"auto_wave\": " << auto_wave << ", \"crossover\": " << crossover
      << ", \"threshold_not_above_crossover\": "
      << (threshold_ok ? "true" : "false") << ", \"rows\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    out << "    {\"batch\": " << r.batch << ", \"serial_us\": " << r.serial_us
        << ", \"spec_us\": " << r.spec_us
        << ", \"speculated\": " << r.speculated
        << ", \"invalidated\": " << r.invalidated
        << ", \"collision_free\": " << (r.collision_free ? "true" : "false")
        << "}" << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ]}\n}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
