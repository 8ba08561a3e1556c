#ifndef CARP_CORE_SIPP_ASTAR_H_
#define CARP_CORE_SIPP_ASTAR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "core/bucket_queue.h"
#include "core/reservation_table.h"
#include "core/route.h"
#include "core/safe_intervals.h"
#include "core/search_engine.h"
#include "core/spacetime_astar.h"
#include "core/warehouse.h"

namespace carp::core {

/// Safe-interval variant of the space-time search (DESIGN.md §2k): nodes
/// are (cell, free-interval) pairs with an earliest-arrival label, so a
/// chain of wait steps the time-expanded engine expands one timestep at a
/// time collapses into a single interval expansion. Successors are
/// wait-then-move: from an interval arrived at time `a`, every neighbour
/// interval overlapping [a + 1, interval.hi + 1] is reachable at
/// max(neighbour.lo, a + 1).
///
/// Contract with SpaceTimeAStar: equal route *costs* on every query (both
/// engines are earliest-arrival-optimal over the identical constraint
/// set — same horizon clipping, same TWP awareness window, same swap
/// rule), but not identical routes — wait placement may differ. The
/// planner-differential engine phase and bench/micro_engine enforce the
/// cost side; route identity is deliberately out of contract.
///
/// Swap handling in interval terms: arriving at a neighbour at time `a`
/// can swap-conflict only when the neighbour was occupied at a - 1
/// (i.e. a == neighbour interval's lo) — otherwise no reservation exists
/// to swap with, and the one oracle probe mirrors the time-expanded
/// engine's IsMoveAllowed check exactly.
///
/// Owns its workspace (interval map, labels, open list) and reuses the
/// allocations across Plan calls. Not safe for concurrent Plan calls on
/// one instance — each worker owns its engine.
class SippAStar {
 public:
  explicit SippAStar(const WarehouseMatrix& matrix) : matrix_(matrix) {}

  /// Takes the concrete table (not the SpaceTimeOracle interface): interval
  /// extraction enumerates its time buckets, which the oracle cannot do.
  std::optional<Route> Plan(const ReservationTable& reservations,
                            TimeStep start_time, GridCoord origin,
                            GridCoord destination,
                            const SpaceTimeAStarOptions& options);

  const SpaceTimeAStarStats& last_stats() const { return stats_; }

  struct ScratchFootprint {
    std::size_t label_slots = 0;
    std::size_t open_capacity = 0;
  };
  ScratchFootprint scratch_footprint() const {
    return {labels_.capacity(), open_.RetainedSlots()};
  }

 private:
  /// One (cell, interval) search node. `arrival` is the best arrival time
  /// found so far; labels are settled in f order and stale open entries
  /// (pushed before an arrival improved) are skipped on pop.
  struct Label {
    std::int32_t cell = 0;
    std::uint32_t interval = 0;  // arena index in the SafeIntervalMap
    TimeStep arrival = 0;
    std::int32_t parent = -1;  // label index, -1 at the root
  };
  /// Bytes charged per live open-list entry in peak_open_bytes: one
  /// (f, g, tie-break, label) record (see SpaceTimeAStar::kOpenEntryBytes).
  static constexpr std::size_t kOpenEntryBytes = 32;

  const WarehouseMatrix& matrix_;
  SpaceTimeAStarStats stats_;
  SafeIntervalMap intervals_;
  std::vector<Label> labels_;
  // Arena interval index -> label index (-1 = none yet); sized to the
  // arena lazily, so only touched intervals cost a slot.
  std::vector<std::int32_t> label_of_interval_;
  BucketQueue<std::int32_t> open_;  // payload: label index
};

/// The engine pair every grid baseline plans through: a time-expanded
/// SpaceTimeAStar and a SippAStar behind one Plan call, dispatched on
/// SpaceTimeAStarOptions::engine (resolved at planner construction via
/// ResolveSearchEngine — CARP_FORCE_ENGINE wins, kAuto keeps the
/// time-expanded oracle). The SpaceTimeOracle overload always runs the
/// time-expanded engine: SRP's fallback and CBS plan through synthetic
/// oracles whose buckets the interval extractor cannot enumerate.
class SearchEngineDriver {
 public:
  explicit SearchEngineDriver(const WarehouseMatrix& matrix)
      : astar_(matrix), sipp_(matrix) {}

  std::optional<Route> Plan(const ReservationTable& reservations,
                            TimeStep start_time, GridCoord origin,
                            GridCoord destination,
                            const SpaceTimeAStarOptions& options) {
    SearchEngine engine = options.engine;
    if (engine == SearchEngine::kAuto) engine = ResolveSearchEngine(engine);
    if (engine == SearchEngine::kSipp) {
      last_ = &sipp_.last_stats();
      return sipp_.Plan(reservations, start_time, origin, destination,
                        options);
    }
    last_ = &astar_.last_stats();
    return astar_.Plan(reservations, start_time, origin, destination,
                       options);
  }

  /// Stats of whichever engine ran the last Plan (time-expanded before the
  /// first call, matching the kAuto default).
  const SpaceTimeAStarStats& last_stats() const {
    return last_ != nullptr ? *last_ : astar_.last_stats();
  }

  SpaceTimeAStar& astar() { return astar_; }
  SippAStar& sipp() { return sipp_; }

 private:
  SpaceTimeAStar astar_;
  SippAStar sipp_;
  const SpaceTimeAStarStats* last_ = nullptr;
};

}  // namespace carp::core

#endif  // CARP_CORE_SIPP_ASTAR_H_
