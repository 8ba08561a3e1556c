#include "baselines/twp_planner.h"

#include <vector>

namespace carp::baselines {

std::optional<core::Route> TwpPlanner::PlanRoute(TimeStep now,
                                                 GridCoord origin,
                                                 GridCoord destination) {
  ++stats_.queries;
  const auto start = EarliestFreeStart(origin, now);
  if (!start.has_value()) {
    ++stats_.failures;
    return std::nullopt;
  }

  std::vector<GridCoord> cells{origin};
  GridCoord cur = origin;
  TimeStep t = *start;
  const TimeStep w = twp_options_.window;

  core::SpaceTimeAStarOptions search = MakeSearchOptions();
  search.window = w;

  for (std::int32_t round = 0; round < twp_options_.max_windows; ++round) {
    if (cur == destination) {
      core::Route route(*start, std::move(cells));
      Commit(route);
      return route;
    }
    // A window search must be able to reach the goal obliviously, so give
    // it the full horizon but collision awareness only within the window.
    search.horizon = options_.horizon;
    auto partial = engine_.Plan(reservations_, t, cur, destination, search);
    NoteEngineSearch();
    if (!partial.has_value()) {
      ++stats_.failures;
      return std::nullopt;
    }
    // Commit at most `w` steps of the collision-checked prefix.
    const TimeStep usable =
        std::min<TimeStep>(partial->end_time(), t + w - 1);
    for (TimeStep step = t + 1; step <= usable; ++step) {
      cells.push_back(partial->At(step));
    }
    cur = partial->At(usable);
    t = usable;
    if (usable == partial->end_time() && cur == destination) {
      core::Route route(*start, std::move(cells));
      Commit(route);
      return route;
    }
  }
  ++stats_.failures;
  return std::nullopt;
}

}  // namespace carp::baselines
