#ifndef CARP_CORE_SEARCH_ENGINE_H_
#define CARP_CORE_SEARCH_ENGINE_H_

namespace carp::core {

// Always astar: every space-time search is the time-expanded A* of
// core/spacetime_astar.h. Kept, with PlannerStats::search_engine, only
// because the frozen daybench/ sources read them; deleted with the next
// benchmark change.
enum class SearchEngine : int {
  kAstar = 0,
  kAuto = 2,
};

/// Lower-case spelling ("astar", "auto").
inline const char* ToString(SearchEngine engine) {
  return engine == SearchEngine::kAuto ? "auto" : "astar";
}

/// Always kAstar.
inline SearchEngine ResolveSearchEngine(SearchEngine /*requested*/) {
  return SearchEngine::kAstar;
}

}  // namespace carp::core

#endif  // CARP_CORE_SEARCH_ENGINE_H_
