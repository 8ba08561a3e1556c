#ifndef CARP_SRP_INTRA_STRIP_PLANNER_H_
#define CARP_SRP_INTRA_STRIP_PLANNER_H_

#include <cstdint>
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
