#include "core/spacetime_astar.h"

#include <algorithm>

#include "common/logging.h"

namespace carp::core {

namespace internal_astar {

namespace {
constexpr std::size_t kInitialSlots = 1024;  // power of two
}  // namespace

void ParentMap::Reset() {
  size_ = 0;
  if (slots_.empty()) {
    slots_.resize(kInitialSlots);
    epoch_ = 1;
    return;
  }
  if (++epoch_ == 0) {  // epoch wrapped: stale stamps could alias; wipe once
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }
}

bool ParentMap::EmplaceIfAbsent(SpaceTimeKey key, std::int32_t parent) {
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = Probe(key.packed, mask);
  for (;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.epoch != epoch_) {
      slot.key = key.packed;
      slot.parent = parent;
      slot.epoch = epoch_;
      ++size_;
      return true;
    }
    if (slot.key == key.packed) return false;
  }
}

std::int32_t ParentMap::FindChecked(SpaceTimeKey key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = Probe(key.packed, mask);
  for (;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    CARP_CHECK(slot.epoch == epoch_);  // probing past live entries = absent key
    if (slot.key == key.packed) return slot.parent;
  }
}

void ParentMap::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max(old.size() * 2, kInitialSlots), Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.epoch != epoch_) continue;  // only this query's entries survive
    std::size_t i = Probe(slot.key, mask);
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

}  // namespace internal_astar

std::optional<Route> SpaceTimeAStar::Plan(
    const SpaceTimeOracle& reservations, TimeStep start_time,
    GridCoord origin, GridCoord destination,
    const SpaceTimeAStarOptions& options) {
  stats_ = SpaceTimeAStarStats{};

  auto endpoint_ok = [&](GridCoord g) {
    return matrix_.IsTraversable(g) ||
           (options.allow_endpoint_racks && matrix_.InBounds(g) &&
            matrix_.IsRack(g));
  };
  if (!endpoint_ok(origin) || !endpoint_ok(destination)) return std::nullopt;

  auto lower_bound = [&](GridCoord g) {
    return ManhattanDistance(g, destination);
  };

  const TimeStep deadline = start_time + options.horizon;
  const TimeStep aware_until =
      options.window >= kInfiniteTime ? kInfiniteTime
                                      : start_time + options.window;
  auto collision_checked = [&](TimeStep t) { return t < aware_until; };

  // Parent tracking: (cell, t) -> predecessor (cell, t-1). The closed set is
  // implicit in the parent map's keys. Both workspaces retain their
  // allocations across queries.
  parents_.Reset();
  open_.Clear();
  // Dial keys: ascending f, then ascending h = f - g (deeper nodes first),
  // then FIFO. Pop recovers g as f - h.
  auto push_open = [&](TimeStep f, TimeStep g, GridCoord cell, TimeStep t) {
    open_.Push(f, f - g,
               OpenNode{static_cast<std::int32_t>(matrix_.Index(cell)), t});
  };

  const std::int32_t goal_index =
      static_cast<std::int32_t>(matrix_.Index(destination));

  if (collision_checked(start_time) &&
      !reservations.IsFree(origin, start_time)) {
    return std::nullopt;  // Caller handles blocked dispatch.
  }

  parents_.EmplaceIfAbsent(SpaceTimeKey(origin, start_time), -1);
  push_open(lower_bound(origin), 0, origin, start_time);
  stats_.generated = 1;

  std::optional<SpaceTimeKey> goal_key;
  GridCoord nbrs[4];
  while (!open_.empty()) {
    const auto item = open_.Pop();
    const OpenNode cur = item.payload;
    const TimeStep g = item.f - item.h;
    stats_.peak_open_bytes = std::max(
        stats_.peak_open_bytes, (open_.size() + 1) * kOpenEntryBytes);
    const GridCoord cell = matrix_.CoordOf(cur.cell);
    if (cur.cell == goal_index) {
      goal_key = SpaceTimeKey(cell, cur.t);
      break;
    }
    if (++stats_.expanded > options.max_expansions) return std::nullopt;
    if (cur.t + 1 > deadline) continue;

    auto try_step = [&](GridCoord next) {
      const bool is_goal =
          static_cast<std::int32_t>(matrix_.Index(next)) == goal_index;
      const bool cell_ok =
          matrix_.IsTraversable(next) ||
          (options.allow_endpoint_racks && matrix_.IsRack(next) && is_goal);
      if (!cell_ok) return;
      if (collision_checked(cur.t + 1) &&
          !reservations.IsMoveAllowed(cell, next, cur.t)) {
        return;
      }
      const SpaceTimeKey key(next, cur.t + 1);
      if (!parents_.EmplaceIfAbsent(key, cur.cell)) return;
      push_open(g + 1 + lower_bound(next), g + 1, next, cur.t + 1);
      ++stats_.generated;
    };

    // Wait in place. Waiting on a rack origin is allowed: the robot has not
    // yet emerged from under the rack.
    if (matrix_.IsTraversable(cell) ||
        (options.allow_endpoint_racks && matrix_.IsRack(cell))) {
      try_step(cell);
    }
    const int cnt = matrix_.Neighbors(cell, nbrs);
    for (int k = 0; k < cnt; ++k) try_step(nbrs[k]);
  }

  stats_.peak_closed_bytes = parents_.CapacityBytes();
  if (!goal_key.has_value()) return std::nullopt;

  // Reconstruct by walking parents backward one timestep at a time.
  std::vector<GridCoord> cells;
  SpaceTimeKey key = *goal_key;
  // Recover the arrival time from the key's low bits (times fit in 36 bits).
  TimeStep t = static_cast<TimeStep>(goal_key->packed & ((1ULL << 36) - 1));
  GridCoord at = destination;
  for (;;) {
    cells.push_back(at);
    const std::int32_t parent_cell = parents_.FindChecked(key);
    if (parent_cell < 0) break;
    at = matrix_.CoordOf(parent_cell);
    --t;
    key = SpaceTimeKey(at, t);
  }
  std::reverse(cells.begin(), cells.end());
  return Route(start_time, std::move(cells));
}

}  // namespace carp::core
