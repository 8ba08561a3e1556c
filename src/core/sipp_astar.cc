#include "core/sipp_astar.h"

#include <algorithm>

#include "common/logging.h"

namespace carp::core {

std::optional<Route> SippAStar::Plan(const ReservationTable& reservations,
                                     TimeStep start_time, GridCoord origin,
                                     GridCoord destination,
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

  if (aware_until > start_time &&
      !reservations.IsFree(origin, start_time)) {
    return std::nullopt;  // Caller handles blocked dispatch.
  }

  // Times at/after the clip are unconditionally free: past the awareness
  // window they are not enforced, and past the deadline they are never
  // probed (arrivals stop at `deadline`, swap probes at arrival - 1).
  const TimeStep clip = std::min(aware_until, deadline + 1);
  intervals_.Build(reservations, start_time, clip);

  labels_.clear();
  label_of_interval_.clear();
  open_.Clear();
  // Keep the (cell, interval) -> label map sized to the lazily growing
  // interval arena; new slots start unlabelled.
  auto ensure_label_slots = [&] {
    if (label_of_interval_.size() < intervals_.arena_size()) {
      label_of_interval_.resize(intervals_.arena_size(), -1);
    }
  };
  // Same dial keys as the time-expanded engine: ascending f, then
  // ascending h = f - g (prefer deeper g), then FIFO.
  auto push_open = [&](TimeStep f, TimeStep g, std::int32_t label) {
    open_.Push(f, f - g, label);
  };

  const std::int32_t goal_index =
      static_cast<std::int32_t>(matrix_.Index(destination));

  const std::int32_t root_interval =
      intervals_.FindContaining(origin, start_time);
  CARP_CHECK(root_interval >= 0);  // origin was free (or unchecked) above
  ensure_label_slots();
  labels_.push_back(Label{static_cast<std::int32_t>(matrix_.Index(origin)),
                          static_cast<std::uint32_t>(root_interval),
                          start_time, -1});
  label_of_interval_[static_cast<std::size_t>(root_interval)] = 0;
  push_open(lower_bound(origin), 0, 0);
  stats_.generated = 1;

  std::int32_t goal_label = -1;
  GridCoord nbrs[4];
  while (!open_.empty()) {
    const auto item = open_.Pop();
    const std::int32_t cur = item.payload;
    stats_.peak_open_bytes = std::max(
        stats_.peak_open_bytes, (open_.size() + 1) * kOpenEntryBytes);
    const Label& top = labels_[static_cast<std::size_t>(cur)];
    if (top.arrival - start_time != item.f - item.h) continue;  // stale
    if (top.cell == goal_index) {
      goal_label = cur;
      break;
    }
    if (++stats_.expanded > options.max_expansions) return std::nullopt;
    ++stats_.interval_expansions;
    if (top.arrival + 1 > deadline) continue;

    const GridCoord cell = matrix_.CoordOf(top.cell);
    const FreeInterval here = intervals_.At(top.interval);
    // Latest feasible arrival at a neighbour: depart no later than the end
    // of this interval, arrive no later than the deadline.
    const TimeStep arrive_hi = std::min(here.hi, deadline - 1) + 1;
    const TimeStep arrive_lo = top.arrival + 1;

    const int cnt = matrix_.Neighbors(cell, nbrs);
    for (int k = 0; k < cnt; ++k) {
      const GridCoord next = nbrs[k];
      const bool is_goal =
          static_cast<std::int32_t>(matrix_.Index(next)) == goal_index;
      const bool cell_ok =
          matrix_.IsTraversable(next) ||
          (options.allow_endpoint_racks && matrix_.IsRack(next) && is_goal);
      if (!cell_ok) continue;

      const SafeIntervalMap::CellIntervals run = intervals_.Intervals(next);
      ensure_label_slots();
      for (std::uint32_t j = run.begin; j < run.begin + run.count; ++j) {
        const FreeInterval span = intervals_.At(j);
        if (span.lo > arrive_hi) break;  // later intervals start later still
        if (span.hi < arrive_lo) continue;
        TimeStep arrival = std::max(span.lo, arrive_lo);
        // arrival <= arrive_hi and <= span.hi here: the interval overlaps.
        if (arrival == span.lo && arrival < aware_until &&
            !reservations.IsMoveAllowed(cell, next, arrival - 1)) {
          // Swap conflict on the interval boundary. A later arrival cannot
          // swap (the neighbour is free at arrival - 1 from span.lo on),
          // but it needs a departure inside this interval — and a boundary
          // swap implies the departure used this interval's last step, so
          // the pair is exhausted.
          if (arrival + 1 > std::min(arrive_hi, span.hi)) continue;
          ++arrival;
        }
        const std::int32_t existing =
            label_of_interval_[static_cast<std::size_t>(j)];
        if (existing >= 0) {
          Label& lbl = labels_[static_cast<std::size_t>(existing)];
          if (lbl.arrival <= arrival) continue;
          lbl.arrival = arrival;
          lbl.parent = cur;
          push_open(arrival - start_time + lower_bound(next),
                    arrival - start_time, existing);
        } else {
          const std::int32_t fresh =
              static_cast<std::int32_t>(labels_.size());
          labels_.push_back(
              Label{static_cast<std::int32_t>(matrix_.Index(next)), j,
                    arrival, cur});
          label_of_interval_[static_cast<std::size_t>(j)] = fresh;
          push_open(arrival - start_time + lower_bound(next),
                    arrival - start_time, fresh);
        }
        ++stats_.generated;
      }
    }
  }

  stats_.intervals_built = intervals_.intervals_built();
  stats_.peak_closed_bytes = labels_.capacity() * sizeof(Label) +
                             label_of_interval_.capacity() *
                                 sizeof(std::int32_t) +
                             intervals_.RetainedBytes();
  if (goal_label < 0) return std::nullopt;

  // Reconstruct: walk the label chain backward, then materialise the
  // per-timestep cell list forward — wait at each label's cell until the
  // successor's arrival.
  std::vector<std::int32_t> chain;
  for (std::int32_t l = goal_label; l >= 0;
       l = labels_[static_cast<std::size_t>(l)].parent) {
    chain.push_back(l);
  }
  std::reverse(chain.begin(), chain.end());
  std::vector<GridCoord> cells;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Label& lbl = labels_[static_cast<std::size_t>(chain[i])];
    const TimeStep until =
        i + 1 < chain.size()
            ? labels_[static_cast<std::size_t>(chain[i + 1])].arrival - 1
            : lbl.arrival;
    const GridCoord at = matrix_.CoordOf(lbl.cell);
    for (TimeStep t = lbl.arrival; t <= until; ++t) cells.push_back(at);
  }
  return Route(start_time, std::move(cells));
}

}  // namespace carp::core
