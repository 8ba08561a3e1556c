// Paired collision-kernel bench for the block-summarized SoA stores
// (DESIGN.md §2f): per scenario, one synthetic strip population with churn
// is loaded into both production stores twice — the flat legacy scan
// (trusted oracle) and the two-level summary scan ("blocked") — then an
// identical probe stream is answered by all of them. The pairing is exact:
// every variant must return bit-identical collision times and occupancy
// bits on every probe; any divergence is a correctness bug, and with
// --strict it fails the run.
//
// Two headline metrics:
//  * pairwise collision judgements per query (candidates_examined), the
//    quantity the paper's Sec. V-D complexity argument bounds — with
//    --strict the W-2 row must show the blocked scan cutting it by
//    >= --min-reduction (default 30%) on both stores;
//  * per-probe scan latency (p50/p99 over the probe stream, best-of-reps
//    per probe).
//
// Emits BENCH_segment_kernel.json. Usage:
//   micro_segment_kernel [--scenarios=W-1,W-2,W-3] [--queries=N]
//                        [--seed=S] [--scale=F] [--out=FILE] [--reps=R]
//                        [--min-reduction=R] [--strict]

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table_writer.h"
#include "flags.h"
#include "srp/segment_index.h"
#include "srp/segment_store.h"
#include "workload/scenario.h"

namespace carp {
namespace {

using geometry::Segment;
using geometry::SpaceTimePoint;

/// Shape of one scenario's synthetic strip population, derived from the
/// paper's Table II volumes: strip length from the layout's long side,
/// density from the day-1 task count (scaled), horizon one working day.
struct StripWorkload {
  std::int64_t strip_length = 48;
  std::int64_t horizon = 43'200;
  std::size_t population = 1024;
};

StripWorkload WorkloadFor(const workload::Scenario& s, double scale) {
  StripWorkload w;
  w.strip_length = std::max(s.layout.height, s.layout.width);
  // An eighth of a day: the surge window of the paper's double-surge
  // arrival profile, when a hot strip actually carries overlapping
  // traffic. Spreading the same population over the full day would leave
  // the probe windows near-empty and measure nothing.
  w.horizon = std::max<TimeStep>(2048, s.day_length / 8);
  // Each task contributes a handful of segments spread over ~W+H strips;
  // the per-strip share of one day's committed state.
  const double per_strip =
      static_cast<double>(s.daily_tasks[0]) * scale * 6.0 /
      static_cast<double>(s.layout.height + s.layout.width);
  w.population = static_cast<std::size_t>(std::max(256.0, per_strip));
  return w;
}

/// Mix resembling real strips: mostly moving segments (unique rotated
/// lines), some waits at repeated positions.
Segment RandomStripSegment(Rng& rng, const StripWorkload& w) {
  const TimeStep t0 = rng.UniformInt(0, w.horizon);
  const std::int64_t p0 = rng.UniformInt(0, w.strip_length);
  if (rng.Bernoulli(0.3)) {
    return Segment({t0, p0}, {t0 + rng.UniformInt(1, 8), p0});
  }
  const std::int64_t span = std::min<std::int64_t>(w.strip_length, 40);
  TimeStep dur = rng.UniformInt(1, span);
  const int slope = rng.Bernoulli(0.5) ? 1 : -1;
  std::int64_t p1 = p0 + slope * dur;
  if (p1 < 0 || p1 > w.strip_length) p1 = p0 - slope * dur;
  if (p1 < 0 || p1 > w.strip_length) p1 = p0 + (p0 < w.strip_length / 2
                                                    ? dur
                                                    : -dur);
  dur = p1 > p0 ? p1 - p0 : p0 - p1;
  if (dur == 0) dur = 1, p1 = p0;
  return Segment({t0, p0}, {t0 + dur, p1});
}

/// One (store type x scan) cell of the bench matrix.
struct Variant {
  std::string store;  // "naive" | "indexed"
  std::unique_ptr<srp::SegmentStore> ptr;
  bool flat = false;  // the flat oracle scan, else the blocked scan

  // Exact counters of one probe-stream pass.
  std::int64_t examined = 0;
  std::int64_t blocks_scanned = 0;
  std::int64_t blocks_skipped = 0;
  std::int64_t summary_pruned = 0;

  // Per-probe scan latency (one collision probe + one point probe),
  // best-of-reps per probe, microseconds.
  double p50_us = 0;
  double p99_us = 0;
  double seconds = 0;  // one full timed pass (sum of best-of-reps)

  const char* scan() const { return flat ? "flat" : "blocked"; }
  double ExaminedPerQuery(int queries) const {
    return static_cast<double>(examined) / std::max(1, queries);
  }
};

}  // namespace
}  // namespace carp

int main(int argc, char** argv) {
  using namespace carp;
  using Clock = std::chrono::steady_clock;

  std::vector<std::string> scenarios = {"W-1", "W-2", "W-3"};
  int query_count = 512;
  int reps = 9;
  std::uint64_t seed = 21;
  // Default population scale: 4x the Table II per-strip share. The
  // per-slot survivor scan only dominates a probe once a few blocks
  // survive the summary filter; at 1x the per-probe cost is mostly binary
  // searches and the latency columns would measure timer noise.
  double scale = 4.0;
  double min_reduction = 0.30;
  std::string out_path = "BENCH_segment_kernel.json";
  bool strict = false;
  constexpr const char* kUsage =
      "options: --scenarios=W-1,W-2,W-3 --queries=N --seed=S --scale=F "
      "--reps=R --min-reduction=R --out=FILE --strict\n";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const char* v = bench::FlagValue(arg, "--scenarios=")) {
      scenarios = bench::SplitList(v);
    } else if (const char* v = bench::FlagValue(arg, "--queries=")) {
      query_count = std::atoi(v);
    } else if (const char* v = bench::FlagValue(arg, "--reps=")) {
      reps = std::max(1, std::atoi(v));
    } else if (const char* v = bench::FlagValue(arg, "--seed=")) {
      seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (const char* v = bench::FlagValue(arg, "--scale=")) {
      scale = std::atof(v);
    } else if (const char* v = bench::FlagValue(arg, "--min-reduction=")) {
      min_reduction = std::atof(v);
    } else if (const char* v = bench::FlagValue(arg, "--out=")) {
      out_path = v;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else {
      bench::RejectFlag(arg, kUsage);
    }
  }

  std::cout << "=== segment-store blocked scan vs flat scan (paired) ===\n"
            << "probes per scenario: " << query_count
            << "; population scale: " << scale << "; timing reps: " << reps
            << "\n\n";

  TableWriter table({"scenario", "live n", "store", "scan", "exam/q", "red",
                     "blk-skip%", "p50(us)", "p99(us)", "ok"});
  std::ostringstream json_rows;
  bool violation = false;
  bool first_json_row = true;

  for (const std::string& name : scenarios) {
    const auto scenario = workload::PaperScenario(name);
    const StripWorkload w = WorkloadFor(scenario, scale);

    // The variant matrix: flat oracle + blocked scan, for each store type.
    std::vector<Variant> variants;
    for (const char* store : {"naive", "indexed"}) {
      for (const bool flat : {true, false}) {
        Variant v;
        v.store = store;
        v.flat = flat;
        if (v.store == "naive") {
          v.ptr = std::make_unique<srp::NaiveSegmentStore>(!flat);
        } else {
          v.ptr = std::make_unique<srp::IndexedSegmentStore>(!flat);
        }
        variants.push_back(std::move(v));
      }
    }

    // Identical population with churn: build, release a third (the
    // tombstone/compaction path), prune the first quarter-day (the epoch
    // sweep path), refill a fifth. Summaries must stay exact through all
    // of it — answers are compared against the flat oracle afterwards.
    Rng rng(seed);
    std::vector<Segment> committed;
    committed.reserve(w.population);
    for (std::size_t i = 0; i < w.population; ++i) {
      const Segment seg = RandomStripSegment(rng, w);
      committed.push_back(seg);
      for (auto& v : variants) v.ptr->Insert(seg);
    }
    for (std::size_t i = 0; i < committed.size(); i += 3) {
      for (auto& v : variants) v.ptr->Remove(committed[i]);
    }
    for (auto& v : variants) v.ptr->PruneBefore(w.horizon / 4);
    for (std::size_t i = 0; i < w.population / 5; ++i) {
      const Segment seg = RandomStripSegment(rng, w);
      for (auto& v : variants) v.ptr->Insert(seg);
    }

    const std::size_t population = variants[0].ptr->size();

    // One probe stream, answered by every variant; the flat naive scan is
    // the oracle. Collision probes and point probes interleave (the two
    // kernel entry points).
    Rng probe_rng(seed * 7919 + 1);
    std::vector<Segment> probes;
    probes.reserve(static_cast<std::size_t>(query_count));
    for (int i = 0; i < query_count; ++i) {
      probes.push_back(RandomStripSegment(probe_rng, w));
    }

    int mismatches = 0;
    srp::SegmentStore& oracle = *variants[0].ptr;
    for (const Segment& p : probes) {
      const TimeStep want = oracle.EarliestCollisionTime(p);
      const bool want_occ = oracle.OccupiedAt(p.start().pos, p.start().t);
      bool agree = true;
      for (auto& v : variants) {
        if (v.ptr.get() == &oracle) continue;
        if (v.ptr->EarliestCollisionTime(p) != want ||
            v.ptr->OccupiedAt(p.start().pos, p.start().t) != want_occ) {
          agree = false;
          std::cerr << name << " " << v.store << "/" << v.scan()
                    << ": answer mismatch on probe " << p << "\n";
        }
      }
      if (!agree) ++mismatches;
    }

    for (auto& v : variants) {
      // Counter pass: exactly one pass of the probe stream.
      v.ptr->ResetStats();
      std::int64_t sink = 0;
      for (const Segment& p : probes) {
        sink += v.ptr->EarliestCollisionTime(p);
        sink += v.ptr->OccupiedAt(p.start().pos, p.start().t) ? 1 : 0;
      }
      if (sink == 42) std::cerr << "";  // keep the loop observable
      const srp::SegmentStoreStats st = v.ptr->stats();
      v.examined = st.candidates_examined;
      v.blocks_scanned = st.blocks_scanned;
      v.blocks_skipped = st.blocks_skipped;
      v.summary_pruned = st.candidates_pruned_by_summary;

      // Latency pass: per-probe wall time, best of `reps` repetitions per
      // probe (denoises scheduler and cache interference on a busy host).
      std::vector<double> best_us(probes.size(),
                                  std::numeric_limits<double>::infinity());
      for (int r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < probes.size(); ++i) {
          const Segment& p = probes[i];
          const auto t0 = Clock::now();
          sink += v.ptr->EarliestCollisionTime(p);
          sink += v.ptr->OccupiedAt(p.start().pos, p.start().t) ? 1 : 0;
          const double us =
              std::chrono::duration<double, std::micro>(Clock::now() - t0)
                  .count();
          best_us[i] = std::min(best_us[i], us);
        }
      }
      if (sink == 43) std::cerr << "";
      std::sort(best_us.begin(), best_us.end());
      auto pct = [&](double q) {
        const std::size_t idx = std::min(
            best_us.size() - 1,
            static_cast<std::size_t>(q * static_cast<double>(best_us.size())));
        return best_us[idx];
      };
      v.p50_us = pct(0.50);
      v.p99_us = pct(0.99);
      v.seconds = 0;
      for (double us : best_us) v.seconds += us * 1e-6;
    }

    if (mismatches > 0) violation = true;

    // Per-store reduction of the blocked scan vs the flat oracle
    // (variants hold flat then blocked for naive, then for indexed).
    double reductions[2] = {0, 0};
    for (int s = 0; s < 2; ++s) {
      const Variant& flat = variants[2 * s];
      const Variant& blocked = variants[2 * s + 1];
      if (flat.examined > 0) {
        reductions[s] = 1.0 - static_cast<double>(blocked.examined) /
                                  static_cast<double>(flat.examined);
      }
    }

    // The acceptance criterion scenario: W-2 must clear the reduction bar
    // on both stores.
    if (name == "W-2" &&
        (reductions[0] < min_reduction || reductions[1] < min_reduction)) {
      std::cerr << "W-2 reduction below " << min_reduction * 100
                << "%: naive " << reductions[0] * 100 << "%, indexed "
                << reductions[1] * 100 << "%\n";
      violation = true;
    }

    for (const auto& v : variants) {
      const double red =
          v.store == "naive" ? reductions[0] : reductions[1];
      const double skip =
          v.blocks_scanned + v.blocks_skipped > 0
              ? 100.0 * static_cast<double>(v.blocks_skipped) /
                    static_cast<double>(v.blocks_scanned + v.blocks_skipped)
              : 0.0;
      table.AddRow({name, std::to_string(population), v.store, v.scan(),
                    FormatDouble(v.ExaminedPerQuery(query_count), 1),
                    v.flat ? "-" : FormatDouble(red * 100, 1) + "%",
                    FormatDouble(skip, 1), FormatDouble(v.p50_us, 3), FormatDouble(v.p99_us, 3),
                    mismatches == 0 ? "yes" : "NO"});
    }

    if (!first_json_row) json_rows << ",\n";
    first_json_row = false;
    json_rows << "    {\"scenario\": \"" << name << "\""
              << ", \"live_population\": " << population
              << ", \"queries\": " << query_count
              << ", \"mismatches\": " << mismatches
              << ", \"naive_reduction\": " << reductions[0]
              << ", \"indexed_reduction\": " << reductions[1]
              << ", \"variants\": [\n";
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const Variant& v = variants[i];
      json_rows << "      {\"store\": \"" << v.store << "\", \"scan\": \""
                << v.scan() << "\", \"examined\": " << v.examined
                << ", \"blocks_scanned\": " << v.blocks_scanned
                << ", \"blocks_skipped\": " << v.blocks_skipped
                << ", \"pruned_by_summary\": " << v.summary_pruned
                << ", \"p50_us\": " << v.p50_us
                << ", \"p99_us\": " << v.p99_us
                << ", \"seconds\": " << v.seconds << "}"
                << (i + 1 < variants.size() ? "," : "") << "\n";
    }
    json_rows << "    ]}";
  }
  table.Print(std::cout);

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"segment_kernel\",\n  \"queries_per_scenario\": "
      << query_count << ",\n  \"population_scale\": " << scale
      << ",\n  \"timing_reps\": " << reps
      << ",\n  \"min_reduction\": " << min_reduction << ",\n  \"rows\": [\n"
      << json_rows.str() << "\n  ]\n}\n";
  std::cout << "\nwrote " << out_path << "\n";

  if (strict && violation) {
    std::cerr << "--strict: mismatch vs oracle or reduction below "
                 "threshold\n";
    return 1;
  }
  return 0;
}
