#ifndef CARP_CHECK_PLANNER_DIFFERENTIAL_H_
#define CARP_CHECK_PLANNER_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

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
};

struct PlannerDiffResult {
  bool ok = true;
  std::string error;
};

/// Drives every planning backend ("SAP", "RP", "TWP", "ACP", "SRP",
/// "SRP-indexed") through the same random scenario and cross-checks:
///
///  * collision-freedom of every backend's committed route set under every
///    requested thread count (the simulator's validation oracle);
///  * live-route accounting: with retirement on, a drained day leaves zero
///    live routes, and an SRP store drained of routes holds zero segments;
///  * SRP vs SRP-indexed route-set equality — the slope index is a drop-in
///    replacement for the default sorted store, so the two backends must plan
///    byte-identical routes for the same task stream;
///  * PlanBatch serial-vs-speculative differential, every backend: the
///    threaded pipeline (validate-then-commit in fixed priority order)
///    must speculate, commit a collision-free route set, equal to the
///    serial loop's for exact-speculation backends (SAP and the SRP
///    variants), and SRP must keep clean store/counter invariants and the
///    serial segment count;
///  * speculative batched dispatch through the simulator: for every thread
///    count above 1, a burst day on the "small" preset (every task at t = 0,
///    at least one full auto wave) must speculate, validate, drain and
///    release like a serial day, with SRP-indexed matching SRP.
///
/// Stops at the first violation and reports the scenario knobs that
/// reproduce it.
PlannerDiffResult RunPlannerDifferential(const PlannerDiffOptions& opt);

}  // namespace carp::check

#endif  // CARP_CHECK_PLANNER_DIFFERENTIAL_H_
