#include "baselines/rp_planner.h"

#include <algorithm>

#include "core/spatial_paths.h"

namespace carp::baselines {

void RpPlanner::Reset() {
  GridPlannerBase::Reset();
  earliest_starts_.clear();
}

std::optional<core::Route> RpPlanner::PlanRoute(TimeStep now,
                                                GridCoord origin,
                                                GridCoord destination) {
  ++stats_.queries;
  const auto start = EarliestFreeStart(origin, now);
  if (!start.has_value()) {
    ++stats_.failures;
    return std::nullopt;
  }

  // Step 1 (RP [3]): collision-oblivious shortest path for the new query.
  core::SpatialPathFinder finder(matrix_);
  auto path = finder.ShortestPath(origin, destination);
  if (!path.has_value()) {
    ++stats_.failures;
    return std::nullopt;
  }
  core::Route naive(*start, std::move(*path));

  // Step 2: conflicts of the oblivious route against committed routes.
  std::vector<core::RouteId> colliding;
  auto add = [&](std::optional<core::RouteId> id) {
    if (id.has_value() &&
        std::find(colliding.begin(), colliding.end(), *id) ==
            colliding.end()) {
      colliding.push_back(*id);
    }
  };
  for (TimeStep t = naive.start_time(); t <= naive.end_time(); ++t) {
    add(reservations_.OccupantAt(naive.At(t), t));
    if (t < naive.end_time() && naive.At(t) != naive.At(t + 1)) {
      auto at_next = reservations_.OccupantAt(naive.At(t + 1), t);
      if (at_next.has_value()) {
        auto back_here = reservations_.OccupantAt(naive.At(t), t + 1);
        if (back_here.has_value() && *back_here == *at_next) add(at_next);
      }
    }
  }

  if (colliding.empty()) {
    Commit(naive);
    earliest_starts_.push_back(*start);
    return naive;
  }
  ++stats_.replans;

  // Step 3: joint replanning of the conflicting group with CBS. Routes
  // already executing (start <= now) are immutable and stay in the
  // reservation table as hard constraints. Ids are stable across releases;
  // an occupant id always names a live route while its reservations exist.
  std::vector<core::RouteId> group;
  for (core::RouteId id : colliding) {
    if (IsLiveId(id) && RouteOfId(id).start_time() > now) {
      group.push_back(id);
    }
  }

  if (group.size() + 1 <= rp_options_.max_group) {
    for (core::RouteId id : group) {
      reservations_.Release(id, RouteOfId(id));
    }
    std::vector<CbsAgent> agents;
    for (core::RouteId id : group) {
      const core::Route& r = RouteOfId(id);
      agents.push_back(CbsAgent{earliest_starts_[IndexOfId(id)], r.origin(),
                                r.destination()});
    }
    agents.push_back(CbsAgent{*start, origin, destination});

    auto joint = cbs_.Solve(agents, reservations_, rp_options_.cbs);
    stats_.expanded_nodes += cbs_.last_stats().low_level_expansions;
    NoteExternalFootprint(cbs_.last_stats().peak_search_bytes);
    if (joint.has_value()) {
      for (std::size_t i = 0; i < group.size(); ++i) {
        const core::RouteId id = group[i];
        ReplaceRoute(id, (*joint)[i]);
        reservations_.Reserve(id, (*joint)[i]);
      }
      const core::Route& fresh = joint->back();
      Commit(fresh);
      earliest_starts_.push_back(*start);
      return fresh;
    }
    // CBS budget exhausted: restore the group and fall through to the
    // prioritized path below.
    for (core::RouteId id : group) {
      reservations_.Reserve(id, RouteOfId(id));
    }
  }

  // Prioritized fallback: plan only the new query with space-time A*
  // against all committed routes.
  auto route = engine_.Plan(reservations_, *start, origin, destination,
                            MakeSearchOptions());
  NoteEngineSearch();
  if (!route.has_value()) {
    ++stats_.failures;
    return std::nullopt;
  }
  Commit(*route);
  earliest_starts_.push_back(*start);
  return route;
}

}  // namespace carp::baselines
