#ifndef CARP_CORE_RESERVATION_TABLE_H_
#define CARP_CORE_RESERVATION_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/audit.h"
#include "common/memory_accounting.h"
#include "common/types.h"
#include "core/route.h"
#include "core/spacetime_oracle.h"

namespace carp::core {

/// Identifier a planner assigns to a committed route.
using RouteId = std::int64_t;

/// Grid-based space-time reservation table: the collision-avoidance state of
/// all A*-family baselines (SAP, RP, TWP, ACP).
///
/// Stores one entry per (cell, timestep) a committed route occupies — the
/// per-grid bookkeeping whose cost the paper's strip representation is
/// designed to avoid. Supports vertex queries, swap queries, route removal
/// (replanning baseline + route retirement), and wholesale pruning of
/// expired timesteps.
///
/// Entries are bucketed by timestep (an outer map keyed by t, inner maps
/// keyed by cell): a lookup costs two hash probes instead of one, but
/// PruneBefore drops whole past buckets without touching a single live
/// entry — the operation the route lifecycle runs on an epoch cadence.
class ReservationTable final : public SpaceTimeOracle {
 public:
  /// Reserves every (cell, t) of `route` for `id`. Cells already reserved by
  /// another route are overwritten only in debug terms — callers must ensure
  /// the route is conflict-free before committing (checked).
  void Reserve(RouteId id, const Route& route);

  /// Removes all reservations of route `id` previously committed with
  /// exactly this `route` object. Entries already dropped by PruneBefore
  /// are skipped silently.
  void Release(RouteId id, const Route& route);

  /// Drops every reservation at timesteps strictly before `t`; returns how
  /// many (cell, time) entries were removed. Callers guarantee that no
  /// future query probes times < t.
  std::size_t PruneBefore(TimeStep t);

  /// Buckets physically erased so far: emptied by Release or dropped
  /// wholesale by PruneBefore.
  std::int64_t buckets_erased() const { return buckets_erased_; }

  /// Route occupying `cell` at time `t`, if any.
  std::optional<RouteId> OccupantAt(GridCoord cell, TimeStep t) const;

  /// True when `cell` is unreserved at time `t`.
  bool IsFree(GridCoord cell, TimeStep t) const override {
    return !OccupantAt(cell, t).has_value();
  }

  /// True when moving from `from` (occupied at `t`) to `to` (occupied at
  /// `t + 1`) neither lands on a reserved cell nor swaps with a reserved
  /// move (Def. 3's two collision cases).
  bool IsMoveAllowed(GridCoord from, GridCoord to,
                     TimeStep t) const override;

  /// Number of (cell, time) entries currently reserved.
  std::size_t EntryCount() const { return entry_count_; }

  /// The largest reserved timestep, or `fallback` when empty. Bounds the
  /// search horizon of space-time A*. Stays a safe upper bound after
  /// Release/PruneBefore (it is not recomputed downward).
  TimeStep MaxReservedTime(TimeStep fallback) const {
    return entry_count_ == 0 ? fallback : max_time_;
  }

  /// Bytes retained (MC metric contribution).
  std::size_t RetainedBytes() const;

  void Clear();

  /// Structural audit (DESIGN.md §2d): entry_count_ equals the sum of all
  /// bucket sizes, no bucket is left behind empty, and max_time_ is still
  /// an upper bound on every reserved timestep. Empty string = pass.
  std::string CheckInvariants() const;

 private:
  void MaybeAudit();

  // One bucket per timestep: cell (packed row/col) -> occupying route.
  using CellMap = std::unordered_map<std::uint64_t, RouteId>;

  static std::uint64_t CellKey(GridCoord cell) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cell.row))
            << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cell.col));
  }

  std::unordered_map<TimeStep, CellMap> buckets_;
  std::size_t entry_count_ = 0;
  TimeStep max_time_ = 0;
  std::int64_t buckets_erased_ = 0;
  AuditSampler audit_;
};

}  // namespace carp::core

#endif  // CARP_CORE_RESERVATION_TABLE_H_
