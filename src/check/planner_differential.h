#ifndef CARP_CHECK_PLANNER_DIFFERENTIAL_H_
#define CARP_CHECK_PLANNER_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/heuristic_table.h"

namespace carp::check {

/// Shape of one planner-level differential scenario. Deterministic in
/// `seed`: a reported failure replays exactly.
struct PlannerDiffOptions {
  std::string preset = "tiny";  // layout::PresetByName tag
  std::uint64_t seed = 1;
  int tasks = 40;
  std::int64_t day_length = 400;
  bool retire_routes = true;
  std::int64_t prune_every = 256;
  std::int64_t prune_slack = 32;
  std::vector<int> thread_counts = {1, 4};

  /// Heuristic the simulated-day sweep builds its planners with. The
  /// table-vs-manhattan cross-check below runs in both modes regardless.
  core::HeuristicMode heuristic = core::HeuristicMode::kTable;
};

struct PlannerDiffResult {
  bool ok = true;
  std::string error;
};

/// Result of the kCorruptHeuristicEntry calibration (see
/// RunHeuristicFaultCalibration).
struct HeuristicFaultResult {
  bool detected = false;   // the cost-mismatch audit flagged the corruption
  int seeds_tried = 0;     // scenarios attempted before detection (or budget)
  std::uint64_t detected_seed = 0;  // the seed that tripped the audit
  std::string detail;      // human-readable account of the detection/failure
};

/// Result of the kOverwideInterval calibration (see
/// RunEngineFaultCalibration).
struct EngineFaultResult {
  bool detected = false;   // the engine differential flagged the fault
  int seeds_tried = 0;     // scenarios attempted before detection (or budget)
  std::uint64_t detected_seed = 0;  // the seed that tripped the audit
  std::string detail;      // human-readable account of the detection/failure
};

/// Proves the detection power of the engine differential's cost-equality
/// and collision audits against StoreFault::kOverwideInterval: for each
/// seed a robot dwells on the query's destination over exactly the window
/// [d, d + 40], where d is the query's unobstructed optimal arrival — so
/// the destination's first free interval ends one step before the dwell
/// and that boundary is load-bearing. The clean interval engine must agree
/// with the time-expanded oracle (the control: both wait out the dwell);
/// with the fault injected (SafeIntervalMap::SetOverwideFaultForTest) the
/// widened interval admits arrival at `d` itself, which is both cheaper
/// than the oracle's answer and a collision — either audit firing counts
/// as detection. Returns detected=false only if `max_seeds` scenarios all
/// fail to produce a mismatch.
EngineFaultResult RunEngineFaultCalibration(int max_seeds);

/// Proves the detection power of the planner differential's heuristic
/// cost-mismatch audit (phase 4) against StoreFault::kCorruptHeuristicEntry:
/// for each seed, a goal table is corrupted with *inadmissible, inverted*
/// entries around the goal — every traversable goal neighbour N gets the
/// overestimate 50000 - 32 * d(N, origin), so the farthest neighbour pops
/// first and A* commits to a provably suboptimal goal arrival. The same
/// seed's *clean* table must agree with Manhattan exactly (the control);
/// the corrupted one must not. Seeds without enough distinct goal
/// neighbours are skipped (interior-only corruption is provably recovered
/// from by A*, so it can never trip a cost audit). Returns detected=false
/// only if `max_seeds` scenarios all fail to produce a mismatch.
HeuristicFaultResult RunHeuristicFaultCalibration(int max_seeds);

/// Drives every planning backend ("SAP", "RP", "TWP", "ACP", "SRP",
/// "SRP-noindex") through the same random scenario and cross-checks:
///
///  * collision-freedom of every backend's committed route set under every
///    requested thread count (the simulator's validation oracle);
///  * live-route accounting: with retirement on, a drained day leaves zero
///    live routes, and an SRP store drained of routes holds zero segments;
///  * SRP vs SRP-noindex route-set equality — the slope index is a drop-in
///    replacement for the naive store, so the two backends must plan
///    byte-identical routes for the same task stream;
///  * PlanBatch serial-vs-speculative equality on SRP — the one place the
///    codebase promises determinism across thread counts (commit-then-
///    validate in fixed priority order);
///  * sharded-commit differential (DESIGN.md §2h), every backend: the
///    sharded pipeline must commit exactly the speculative pipeline's
///    route set (and, for exact-speculation backends — SAP and the SRP
///    variants — the serial loop's), with clean shard/store invariants
///    and every accepted route routed through the shard locks;
///  * heuristic cross-check — an optimal single-agent search guided by the
///    true-distance table must return routes of exactly the cost the
///    Manhattan-guided search returns over identical committed state
///    (routes may differ under ties; costs may not), and an SRP day in
///    manhattan mode must stay collision-free;
///  * engine equivalence (DESIGN.md §2k) — every grid backend rebuilt with
///    the time-expanded and with the safe-interval search engine must
///    answer each query of a shared stream with routes of exactly equal
///    cost over identical committed state (routes may differ — the
///    interval engine places waits wherever the collapsed expansion lands
///    them), and every interval-engine answer must be collision-free
///    against the state it was planned over.
///
/// Stops at the first violation and reports the scenario knobs that
/// reproduce it.
PlannerDiffResult RunPlannerDifferential(const PlannerDiffOptions& opt);

}  // namespace carp::check

#endif  // CARP_CHECK_PLANNER_DIFFERENTIAL_H_
