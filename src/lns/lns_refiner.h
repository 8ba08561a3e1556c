#ifndef CARP_LNS_LNS_REFINER_H_
#define CARP_LNS_LNS_REFINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "core/collision.h"
#include "core/planner.h"
#include "core/route.h"

namespace carp::lns {

/// How one refinement iteration picks its neighborhood of live routes
/// (DESIGN.md §2i). The default rotates through all three round-robin, the
/// standard LNS portfolio: random escapes local structure, the other two
/// aim the destruction where coupled routes block each other.
enum class NeighborhoodPolicy {
  /// Uniformly random distinct routes.
  kRandom = 0,
  /// The routes passing nearest the currently hottest cell (the cell with
  /// the highest dwell count over all live routes) — conflict-coupled
  /// routes whose waits and detours stand or fall together.
  kConflictHotspot = 1,
  /// A random seed route plus the routes sharing the most locality buckets
  /// with it (buckets default to grid columns — the strip axis — and
  /// callers can bind the exact strip id via LnsOptions::locality_of):
  /// routes traversing the same strips contend for the same segment
  /// stores.
  kStripLocality = 2,
};

struct LnsOptions {
  /// Routes destroyed and jointly repaired per iteration (clamped to the
  /// live-set size; iterations need at least 2).
  std::size_t neighborhood = 8;

  /// Seed of the (deterministic) neighborhood selection stream.
  std::uint64_t seed = 1;

  /// Optional worker pool: with a pool and a speculating planner the
  /// repair's query phase runs concurrently; validation and commits stay
  /// on the calling thread (the same discipline as core::PlanBatch).
  /// Null = fully serial iterations.
  ThreadPool* pool = nullptr;

  /// Pin a single selection policy (tests / ablations); nullopt rotates
  /// all three round-robin.
  std::optional<NeighborhoodPolicy> policy;

  /// Locality bucket of a cell for kStripLocality (e.g. the SRP strip id).
  /// Default: the grid column, the strip axis of the paper's layouts.
  std::function<std::int64_t(GridCoord)> locality_of;
};

/// Counters of a refiner's lifetime. `cost_improvement` is the sum of
/// accepted (old - new) neighborhood costs, in Planner::RouteCost units —
/// strictly positive terms only, because acceptance requires a strict
/// drop, which is what makes the accepted total monotone non-increasing.
struct LnsStats {
  std::int64_t iterations = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;        // repaired, but total cost did not drop
  std::int64_t failed_repairs = 0;  // a member failed to replan (rolled back)
  std::int64_t rollbacks = 0;       // rejected + failed: originals recommitted
  std::int64_t routes_released = 0;
  std::int64_t routes_replanned = 0;
  std::int64_t speculative_repairs = 0;  // repairs served by the query phase
  std::int64_t cost_improvement = 0;
};

/// One live route the refiner may destroy and repair: the committed route
/// and the earliest time a replacement may emerge (its request's release
/// time, floored by the current service clock — a replacement may never
/// start in the caller's past).
struct LnsCandidate {
  core::Route route;
  TimeStep emerge = 0;
};

/// Anytime large-neighborhood-search refiner over any core::Planner
/// (DESIGN.md §2i).
///
/// Each Iterate picks a neighborhood of live routes, releases them
/// (destroy), jointly replans them in descending-cost order against the
/// remaining committed state (repair — the most-delayed route gets first
/// pick of the corridors its blockers vacated), and accepts the repair
/// only when the neighborhood's summed Planner::RouteCost strictly drops.
/// Otherwise it rolls back by recommitting the original routes through the
/// planner's own commit path — and because release is exact (multiset
/// collision state; PR 2) and commits re-derive the canonical
/// decomposition, a failed repair is a true no-op: the planner's
/// StateFingerprint is bit-identical to the pre-iteration reference.
///
/// The refiner never invents state: every mutation goes through
/// ReleaseRoute / PlanRoute / CommitRoute, so all planner
/// invariants, audits and stats keep working mid-refinement. Iterations
/// are deterministic given the seed, the planner state and the candidate
/// list — pool scheduling never affects decisions (the speculative query
/// phase writes to per-member slots; decisions replay in a fixed order).
class LnsRefiner {
 public:
  LnsRefiner(core::Planner& planner, const LnsOptions& options);

  /// One destroy-and-repair iteration over `live`. On acceptance the
  /// repaired members are written back into `live` (same slots, same
  /// emerge times) and true is returned; on rejection or a failed repair
  /// the planner is rolled back bit-identically and `live` is untouched.
  bool Iterate(std::vector<LnsCandidate>& live);

  const LnsStats& stats() const { return stats_; }
  const LnsOptions& options() const { return options_; }

 private:
  /// Policy of the next iteration (fixed or rotating).
  NeighborhoodPolicy NextPolicy();

  /// Picks this iteration's neighborhood: distinct indices into `live`,
  /// in repair order (descending original RouteCost, ties by index).
  void SelectNeighborhood(const std::vector<LnsCandidate>& live,
                          std::vector<std::size_t>& out);

  /// Releases every route of `routes` (reverse order); CARP_CHECKs that
  /// each release succeeds — nothing can have pruned them mid-iteration.
  void ReleaseAll(const std::vector<core::Route>& routes);

  core::Planner& planner_;
  LnsOptions options_;
  Rng rng_;
  LnsStats stats_;
  int policy_cursor_ = 0;

  // Scratch, reused across iterations.
  std::vector<std::size_t> picked_;
  std::vector<std::optional<core::Route>> speculative_;
  std::vector<std::unique_ptr<core::Planner::QueryContext>> contexts_;
  std::vector<core::Route> committed_new_;
  core::IncrementalConflictChecker checker_;
};

}  // namespace carp::lns

#endif  // CARP_LNS_LNS_REFINER_H_
