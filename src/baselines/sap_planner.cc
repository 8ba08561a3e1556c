#include "baselines/sap_planner.h"

namespace carp::baselines {

std::optional<core::Route> SapPlanner::PlanRoute(TimeStep now,
                                                 GridCoord origin,
                                                 GridCoord destination) {
  ++stats_.queries;
  const auto start = EarliestFreeStart(origin, now);
  if (!start.has_value()) {
    ++stats_.failures;
    return std::nullopt;
  }

  auto route = engine_.Plan(reservations_, *start, origin, destination,
                            MakeSearchOptions());
  NoteEngineSearch();
  if (!route.has_value()) {
    ++stats_.failures;
    return std::nullopt;
  }
  Commit(*route);
  return route;
}

}  // namespace carp::baselines
