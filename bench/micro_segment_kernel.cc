// Paired collision-kernel bench for the block-summarized SoA stores
// (DESIGN.md §2f/§2g): per scenario, one synthetic strip population with
// churn is loaded into both production stores under every kernel variant
// — the flat legacy scan (trusted oracle) plus the two-level summary scan
// under each survivor-scan kernel (scalar / avx2) — then an
// identical probe stream is answered by all of them. The pairing is exact:
// every variant must return bit-identical collision times and occupancy
// bits on every probe, and the blocked variants must agree on their exact
// scan counters too; any divergence is a correctness bug, and with
// --strict it fails the run.
//
// Two headline metrics:
//  * pairwise collision judgements per query (candidates_examined), the
//    quantity the paper's Sec. V-D complexity argument bounds — with
//    --strict the W-2 row must show the blocked kernel cutting it by
//    >= --min-reduction (default 30%) on both stores;
//  * per-probe scan latency (p50/p99 over the probe stream, best-of-reps
//    per probe), the quantity the lane kernels accelerate — the JSON
//    records the avx2-vs-scalar per-probe speedup per store.
//
// Emits BENCH_segment_kernel.json. Usage:
//   micro_segment_kernel [--scenarios=W-1,W-2,W-3] [--queries=N]
//                        [--seed=S] [--scale=F] [--out=FILE]
//                        [--kernel=scalar|avx2|auto] [--reps=R]
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
#include "core/kernel_dispatch.h"
#include "srp/segment_index.h"
#include "srp/segment_store.h"
#include "workload/scenario.h"

namespace carp {
namespace {

using core::CollisionKernel;
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

/// One (store type x kernel) cell of the bench matrix.
struct Variant {
  std::string store;   // "naive" | "indexed"
  std::string kernel;  // "flat" (oracle) or the resolved lane kernel name
  std::unique_ptr<srp::SegmentStore> ptr;
  bool flat = false;

  // Exact counters of one probe-stream pass.
  std::int64_t examined = 0;
  std::int64_t blocks_scanned = 0;
  std::int64_t blocks_skipped = 0;
  std::int64_t summary_pruned = 0;
  std::int64_t lanes_processed = 0;
  std::int64_t lanes_survived = 0;

  // Per-probe scan latency (one collision probe + one point probe),
  // best-of-reps per probe, microseconds.
  double p50_us = 0;
  double p99_us = 0;
  double seconds = 0;  // one full timed pass (sum of best-of-reps)

  double ExaminedPerQuery(int queries) const {
    return static_cast<double>(examined) / std::max(1, queries);
  }
  double LaneSurvivalPct() const {
    return lanes_processed == 0 ? 0.0
                                : 100.0 * static_cast<double>(lanes_survived) /
                                      static_cast<double>(lanes_processed);
  }
};

const char* KernelName(const srp::SegmentStore& s) {
  return core::ToString(s.stats().kernel);
}

}  // namespace
}  // namespace carp

int main(int argc, char** argv) {
  using namespace carp;
  using Clock = std::chrono::steady_clock;

  std::vector<std::string> scenarios = {"W-1", "W-2", "W-3"};
  int query_count = 512;
  int reps = 9;
  std::uint64_t seed = 21;
  // Default population scale: 4x the Table II per-strip share. The lane
  // kernels accelerate the per-slot survivor scan, whose share of a probe
  // only dominates once a few blocks survive the summary filter; at 1x the
  // per-probe cost is mostly binary searches and the kernel dimension
  // would measure timer noise.
  double scale = 4.0;
  double min_reduction = 0.30;
  std::string out_path = "BENCH_segment_kernel.json";
  std::string kernel_arg;
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scenarios=", 0) == 0) {
      scenarios.clear();
      std::string cur;
      for (const char* p = arg.c_str() + sizeof("--scenarios=") - 1;; ++p) {
        if (*p == ',' || *p == '\0') {
          if (!cur.empty()) scenarios.push_back(cur);
          cur.clear();
          if (*p == '\0') break;
        } else {
          cur += *p;
        }
      }
    } else if (arg.rfind("--queries=", 0) == 0) {
      query_count = std::atoi(arg.c_str() + sizeof("--queries=") - 1);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::max(1, std::atoi(arg.c_str() + sizeof("--reps=") - 1));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = static_cast<std::uint64_t>(
          std::atoll(arg.c_str() + sizeof("--seed=") - 1));
    } else if (arg.rfind("--scale=", 0) == 0) {
      scale = std::atof(arg.c_str() + sizeof("--scale=") - 1);
    } else if (arg.rfind("--min-reduction=", 0) == 0) {
      min_reduction = std::atof(arg.c_str() + sizeof("--min-reduction=") - 1);
    } else if (arg.rfind("--kernel=", 0) == 0) {
      kernel_arg = arg.substr(sizeof("--kernel=") - 1);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(sizeof("--out=") - 1);
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "options: --scenarios=W-1,W-2,W-3 --queries=N --seed=S "
                   "--scale=F --reps=R --kernel=scalar|avx2|auto "
                   "--min-reduction=R --out=FILE --strict\n";
      return 0;
    }
  }

  // The kernel dimension: every kernel this host can honor, or the one
  // requested. CARP_FORCE_KERNEL (honored inside store construction) and
  // unsupported-AVX2 degradation can collapse requested kernels onto one
  // another, so variants are labeled by the kernel each store *resolved*
  // to and deduplicated afterwards.
  std::vector<CollisionKernel> requested;
  if (!kernel_arg.empty()) {
    CollisionKernel k;
    if (!core::ParseCollisionKernel(kernel_arg, &k)) {
      std::cerr << "unknown --kernel value: " << kernel_arg
                << " (expected scalar|avx2|auto)\n";
      return 2;
    }
    requested.push_back(k);
  } else {
    requested = {CollisionKernel::kScalar, CollisionKernel::kAvx2};
  }

  std::cout << "=== segment-store collision kernels vs flat scan (paired) "
               "===\n"
            << "probes per scenario: " << query_count
            << "; population scale: " << scale << "; timing reps: " << reps
            << "\n\n";

  TableWriter table({"scenario", "live n", "store", "kernel", "exam/q",
                     "red", "blk-skip%", "lane-surv%", "p50(us)", "p99(us)",
                     "ok"});
  std::ostringstream json_rows;
  bool violation = false;
  bool first_json_row = true;

  for (const std::string& name : scenarios) {
    const auto scenario = workload::PaperScenario(name);
    const StripWorkload w = WorkloadFor(scenario, scale);

    // Build the variant matrix: flat oracle + one blocked variant per
    // resolved kernel, for each store type. The flat stores' scans never
    // enter the lane path (summaries off), so the oracle is the scalar
    // reference code no matter what CARP_FORCE_KERNEL says.
    std::vector<Variant> variants;
    auto add = [&](const std::string& store, bool flat, CollisionKernel k) {
      Variant v;
      v.store = store;
      v.flat = flat;
      if (store == "naive") {
        v.ptr = std::make_unique<srp::NaiveSegmentStore>(!flat, k);
      } else {
        v.ptr = std::make_unique<srp::IndexedSegmentStore>(!flat, k);
      }
      v.kernel = flat ? "flat" : KernelName(*v.ptr);
      for (const Variant& have : variants) {
        if (have.store == v.store && have.kernel == v.kernel) return;
      }
      variants.push_back(std::move(v));
    };
    for (const char* store : {"naive", "indexed"}) {
      add(store, /*flat=*/true, CollisionKernel::kScalar);
      for (CollisionKernel k : requested) add(store, /*flat=*/false, k);
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
          std::cerr << name << " " << v.store << "/" << v.kernel
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
      v.lanes_processed = st.lanes_processed;
      v.lanes_survived = st.lanes_survived;

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

    // Exact-parity audit across the blocked kernels: identical answers
    // were already demanded above; the lane paths must also reproduce the
    // scalar scan's work counters slot-for-slot.
    for (const char* store : {"naive", "indexed"}) {
      const Variant* base = nullptr;
      for (const auto& v : variants) {
        if (v.flat || v.store != store) continue;
        if (base == nullptr) {
          base = &v;
          continue;
        }
        if (v.examined != base->examined ||
            v.blocks_scanned != base->blocks_scanned ||
            v.blocks_skipped != base->blocks_skipped ||
            v.summary_pruned != base->summary_pruned) {
          std::cerr << name << " " << store << ": counter divergence between "
                    << base->kernel << " and " << v.kernel << " kernels\n";
          ++mismatches;
        }
      }
    }
    if (mismatches > 0) violation = true;

    // Per-store reduction of the blocked kernel vs the flat oracle, and
    // the avx2-vs-scalar per-probe speedup (when both ran).
    auto find = [&](const std::string& store,
                    const std::string& kernel) -> const Variant* {
      for (const auto& v : variants) {
        if (v.store == store && v.kernel == kernel) return &v;
      }
      return nullptr;
    };
    double reductions[2] = {0, 0};
    double avx2_speedup[2] = {0, 0};
    const char* store_names[2] = {"naive", "indexed"};
    for (int s = 0; s < 2; ++s) {
      const Variant* flat = find(store_names[s], "flat");
      const Variant* blocked = nullptr;
      for (const auto& v : variants) {
        if (!v.flat && v.store == store_names[s]) {
          blocked = &v;
          break;
        }
      }
      if (flat != nullptr && blocked != nullptr && flat->examined > 0) {
        reductions[s] = 1.0 - static_cast<double>(blocked->examined) /
                                  static_cast<double>(flat->examined);
      }
      const Variant* sc = find(store_names[s], "scalar");
      const Variant* av = find(store_names[s], "avx2");
      if (sc != nullptr && av != nullptr && av->p50_us > 0) {
        avx2_speedup[s] = sc->p50_us / av->p50_us;
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
      table.AddRow({name, std::to_string(population), v.store, v.kernel,
                    FormatDouble(v.ExaminedPerQuery(query_count), 1),
                    v.flat ? "-" : FormatDouble(red * 100, 1) + "%",
                    FormatDouble(skip, 1),
                    v.lanes_processed > 0
                        ? FormatDouble(v.LaneSurvivalPct(), 1)
                        : "-",
                    FormatDouble(v.p50_us, 3), FormatDouble(v.p99_us, 3),
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
              << ", \"naive_avx2_speedup_vs_scalar\": " << avx2_speedup[0]
              << ", \"indexed_avx2_speedup_vs_scalar\": " << avx2_speedup[1]
              << ", \"variants\": [\n";
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const Variant& v = variants[i];
      json_rows << "      {\"store\": \"" << v.store << "\", \"kernel\": \""
                << v.kernel << "\", \"examined\": " << v.examined
                << ", \"blocks_scanned\": " << v.blocks_scanned
                << ", \"blocks_skipped\": " << v.blocks_skipped
                << ", \"pruned_by_summary\": " << v.summary_pruned
                << ", \"lanes_processed\": " << v.lanes_processed
                << ", \"lanes_survived\": " << v.lanes_survived
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
      << ",\n  \"min_reduction\": " << min_reduction
      << ",\n  \"avx2_supported\": "
      << (core::CpuSupportsAvx2() ? "true" : "false") << ",\n  \"rows\": [\n"
      << json_rows.str() << "\n  ]\n}\n";
  std::cout << "\nwrote " << out_path << "\n";

  if (strict && violation) {
    std::cerr << "--strict: mismatch vs oracle, counter divergence, or "
                 "reduction below threshold\n";
    return 1;
  }
  return 0;
}
