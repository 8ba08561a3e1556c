#include "baselines/acp_planner.h"

#include "core/spatial_paths.h"

namespace carp::baselines {

void AcpPlanner::Reset() {
  GridPlannerBase::Reset();
  path_cache_.clear();
  lru_.clear();
  cache_bytes_ = 0;
}

std::size_t AcpPlanner::RetainedBytes() const {
  std::size_t bytes = GridPlannerBase::RetainedBytes();
  bytes += mem::BytesOf(path_cache_);
  bytes += lru_.size() * (sizeof(std::uint64_t) + 2 * sizeof(void*));
  for (const auto& [key, entry] : path_cache_) {
    bytes += entry.path.capacity() * sizeof(GridCoord);
  }
  return bytes;
}

void AcpPlanner::EvictToBudget() {
  // Never evict the front: the caller holds a pointer into the entry just
  // returned (unordered_map pointers are stable against other erasures).
  while (cache_bytes_ > acp_options_.cache_budget_bytes && lru_.size() > 1) {
    const std::uint64_t victim = lru_.back();
    auto it = path_cache_.find(victim);
    cache_bytes_ -= EntryBytes(it->second);
    path_cache_.erase(it);
    lru_.pop_back();
    ++cache_evictions_;
  }
}

const std::vector<GridCoord>* AcpPlanner::CachedPath(GridCoord origin,
                                                     GridCoord destination) {
  const std::uint64_t key = PairKey(origin, destination);
  auto it = path_cache_.find(key);
  if (it != path_cache_.end()) {
    ++stats_.cache_hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.path.empty() ? nullptr : &it->second.path;
  }
  core::SpatialPathFinder finder(matrix_);
  auto path = finder.ShortestPath(origin, destination);
  lru_.push_front(key);
  auto [ins, unused] = path_cache_.emplace(
      key, CacheEntry{path.has_value() ? std::move(*path)
                                       : std::vector<GridCoord>{},
                      lru_.begin()});
  cache_bytes_ += EntryBytes(ins->second);
  EvictToBudget();
  return ins->second.path.empty() ? nullptr : &ins->second.path;
}

std::optional<core::Route> AcpPlanner::PlanRoute(TimeStep now,
                                                 GridCoord origin,
                                                 GridCoord destination) {
  ++stats_.queries;
  const auto start = EarliestFreeStart(origin, now);
  if (!start.has_value()) {
    ++stats_.failures;
    return std::nullopt;
  }

  const std::vector<GridCoord>* path = CachedPath(origin, destination);
  if (path == nullptr) {
    ++stats_.failures;
    return std::nullopt;
  }

  // Walk the cached path, waiting out conflicts.
  std::vector<GridCoord> cells{origin};
  TimeStep t = *start;
  bool ok = true;
  for (std::size_t i = 1; i < path->size() && ok; ++i) {
    const GridCoord next = (*path)[i];
    TimeStep waited = 0;
    while (!reservations_.IsMoveAllowed(cells.back(), next, t)) {
      // Wait in place; the wait itself must not collide.
      if (waited >= acp_options_.max_wait_per_step ||
          !reservations_.IsMoveAllowed(cells.back(), cells.back(), t)) {
        ok = false;
        break;
      }
      cells.push_back(cells.back());
      ++t;
      ++waited;
    }
    if (!ok) break;
    cells.push_back(next);
    ++t;
  }

  if (ok) {
    core::Route route(*start, std::move(cells));
    Commit(route);
    return route;
  }

  // Escalate: full space-time A*.
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
