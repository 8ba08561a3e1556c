#ifndef CARP_SRP_INTRA_STRIP_PLANNER_H_
#define CARP_SRP_INTRA_STRIP_PLANNER_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/types.h"
#include "srp/segment_store.h"

namespace carp::srp {

/// Budgets of the intra-strip backtracking search (Alg. 2). When exhausted
/// the search fails and SrpPlanner escalates to its A* fallback (Sec. VI).
struct IntraPlanOptions {
  /// Maximum waiting steps tried at one stop position. Waits longer than
  /// this are almost never part of a good route — the inter-strip level
  /// finds a detour first — so a small cap makes infeasible edges fail
  /// fast.
  std::int32_t max_wait = 24;

  /// Maximum number of stop-and-wait points along one intra-strip route
  /// (recursion depth).
  std::int32_t max_stops = 32;

  /// Total collision-query budget per call.
  std::int64_t max_probes = 16;

};

/// Result of intra-strip planning: the route's space-time occupancy within
/// the strip as contiguous segments (Fig. 4's polylines). Always non-empty;
/// a route that starts at its target position yields one point segment.
struct IntraPlan {
  std::vector<geometry::Segment> segments;

  /// Time at which the robot occupies the target position (= finish time
  /// of the last segment).
  TimeStep arrival = 0;

  /// Collision queries issued to the store (diagnostics). No candidate is
  /// probed twice in one call; a reused answer still spends `max_probes`
  /// budget but is not counted here.
  std::int64_t probes = 0;
};

/// Alg. 2 from one fixed state — the robot at grid number `entry` of a
/// strip at time `start` — to any number of exits of that strip, sharing
/// what one exit's answer proves about the others (DESIGN.md §2a):
///
///  * past a failure: once the plan to exit x fails, every exit at or past
///    x in the same direction fails too, and is answered without a search;
///  * before a free move: once the direct move to exit x is collision-free,
///    every exit between the entry and x is answered with that move's
///    prefix, without a probe.
///
/// Both rules are exact, so `PlanTo(x)` answers every exit exactly as a
/// fresh `PlanWithinStrip(store, start, entry, x, options)` would (same
/// segments and arrival); only the store work falls. The store must not
/// change while the object is in use.
class StripExits {
 public:
  StripExits(const SegmentStore& store, TimeStep start, std::int64_t entry,
             const IntraPlanOptions& options)
      : store_(store), options_(options), start_(start), entry_(entry) {}

  /// Plans from the entry to grid number `exit`; `probes` counts only the
  /// store queries this call issued.
  std::optional<IntraPlan> PlanTo(std::int64_t exit);

 private:
  // What the answers so far prove about one direction from the entry,
  // as distances from it.
  struct Side {
    std::int64_t free_to = 0;  // the direct move this far is free
    std::int64_t failed_from = std::numeric_limits<std::int64_t>::max();
  };

  const SegmentStore& store_;
  const IntraPlanOptions& options_;
  const TimeStep start_;
  const std::int64_t entry_;
  Side sides_[2];  // [0] toward lower grid numbers, [1] toward higher
};

/// The segment-based route planner within a single strip (Alg. 2).
///
/// Greedily moves from `from_pos` toward `to_pos` (monotonically — the
/// paper prohibits backward movement within a strip for search efficiency,
/// Sec. V-C); on a predicted collision it stops just before the collision
/// time, waits, and retries, backtracking over stop positions and wait
/// lengths within the options' budgets.
///
/// Preconditions: the robot legally occupies grid number `from_pos` of the
/// strip at time `start` (its occupancy up to `start` is already committed
/// or checked by the caller).
std::optional<IntraPlan> PlanWithinStrip(const SegmentStore& store,
                                         TimeStep start,
                                         std::int64_t from_pos,
                                         std::int64_t to_pos,
                                         const IntraPlanOptions& options);

}  // namespace carp::srp

#endif  // CARP_SRP_INTRA_STRIP_PLANNER_H_
