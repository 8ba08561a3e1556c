#ifndef CARP_CORE_SPACETIME_ASTAR_H_
#define CARP_CORE_SPACETIME_ASTAR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "core/bucket_queue.h"
#include "core/spacetime_key.h"
#include "core/spacetime_oracle.h"
#include "core/route.h"
#include "core/warehouse.h"

namespace carp::core {

/// Options for a space-time A* search.
struct SpaceTimeAStarOptions {
  /// Search may not extend past start_time + horizon. A generous default is
  /// set by callers from the warehouse perimeter.
  TimeStep horizon = 4096;

  /// Collision awareness window (TWP baseline): reservations are enforced
  /// only for timesteps < start_time + window. kInfiniteTime = always.
  TimeStep window = kInfiniteTime;

  /// Expansion budget; the search aborts (returns nullopt) beyond it.
  std::int64_t max_expansions = 4'000'000;

  /// Permit origin/destination on rack cells (entered as endpoint only).
  bool allow_endpoint_racks = false;
};

/// Statistics of the last search, for benchmarks and MC accounting.
struct SpaceTimeAStarStats {
  std::int64_t expanded = 0;
  std::int64_t generated = 0;
  std::size_t peak_open_bytes = 0;
  std::size_t peak_closed_bytes = 0;
};

namespace internal_astar {

/// Open-addressing hash map from SpaceTimeKey to predecessor cell, stamped
/// with a query epoch so `Reset` is O(1) and slot storage is reused across
/// queries (a node-based unordered_map allocates per insert even after
/// clear(), defeating workspace reuse). Linear probing at <= 0.5 load; no
/// deletions. Occupancy is "epoch matches", so no reserved key is needed.
class ParentMap {
 public:
  /// Starts a new query; previous entries become logically absent.
  void Reset();

  /// Inserts key -> parent unless the key is already present this query.
  /// Returns true when inserted.
  bool EmplaceIfAbsent(SpaceTimeKey key, std::int32_t parent);

  /// Predecessor of a key inserted this query; the key must be present.
  std::int32_t FindChecked(SpaceTimeKey key) const;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  std::size_t CapacityBytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::int32_t parent = 0;
    std::uint32_t epoch = 0;  // slot live iff == current map epoch
  };

  static std::size_t Probe(std::uint64_t key, std::size_t mask) {
    SpaceTimeKey k;
    k.packed = key;
    return static_cast<std::size_t>(SpaceTimeKeyHash{}(k)) & mask;
  }
  void Grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;     // live entries this epoch
  std::uint32_t epoch_ = 0;  // 0 = never reset; slots_ empty
};

}  // namespace internal_astar

/// The 3-D (2-D space + 1-D time) A* search engine the paper identifies as
/// the efficiency bottleneck of grid-based planners (Sec. I). Shared by the
/// SAP, RP, TWP and ACP baselines and by SRP's rare fallback path.
///
/// Finds the earliest-arrival route from `origin` (occupied at
/// `start_time`) to `destination` that respects `reservations` (vertex and
/// swap constraints), with waiting allowed. The Manhattan bound is
/// admissible, so returned routes arrive as early as possible given the
/// constraints.
///
/// The engine owns its search workspace (parent map + open list) and reuses
/// the allocations across Plan calls; steady-state queries allocate nothing
/// beyond the returned Route. Not safe for concurrent Plan calls on one
/// instance — each worker owns its engine (see SearchContext / Search).
class SpaceTimeAStar {
 public:
  explicit SpaceTimeAStar(const WarehouseMatrix& matrix) : matrix_(matrix) {}

  std::optional<Route> Plan(const SpaceTimeOracle& reservations,
                            TimeStep start_time, GridCoord origin,
                            GridCoord destination,
                            const SpaceTimeAStarOptions& options);

  const SpaceTimeAStarStats& last_stats() const { return stats_; }

  /// Retained workspace sizes, for allocation-stability tests.
  struct ScratchFootprint {
    std::size_t parent_slots = 0;    // parent-map slot capacity
    std::size_t open_capacity = 0;   // open-list retained payload slots
  };
  ScratchFootprint scratch_footprint() const {
    return {parents_.capacity(), open_.RetainedSlots()};
  }

 private:
  /// Bytes charged per live open-list entry in peak_open_bytes, the
  /// open-list share of the MC metric: one (f, g, tie-break, cell, t)
  /// record. A fixed charge keeps MC independent of how the open list
  /// packs its entries.
  static constexpr std::size_t kOpenEntryBytes = 40;

  /// Open-list payload: f and h = f - g live in the dial's keys, so the
  /// queue stores only what they can't recover.
  struct OpenNode {
    std::int32_t cell = 0;
    TimeStep t = 0;
  };

  const WarehouseMatrix& matrix_;
  SpaceTimeAStarStats stats_;
  internal_astar::ParentMap parents_;  // closed set is implicit in its keys
  BucketQueue<OpenNode> open_;
};

}  // namespace carp::core

#endif  // CARP_CORE_SPACETIME_ASTAR_H_
