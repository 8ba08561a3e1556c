#ifndef CARP_BASELINES_GRID_PLANNER_BASE_H_
#define CARP_BASELINES_GRID_PLANNER_BASE_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/logging.h"
#include "core/planner.h"
#include "core/reservation_table.h"
#include "core/spacetime_astar.h"
#include "core/warehouse.h"

namespace carp::baselines {

/// Common budgets shared by the grid-based baseline planners.
struct GridPlannerOptions {
  /// Search horizon; 0 = derive 4*(H+W) from the warehouse.
  TimeStep horizon = 0;

  /// Node-expansion budget per space-time A* search.
  std::int64_t max_expansions = 2'000'000;

  /// Maximum dispatch delay when the origin cell is occupied at query time.
  TimeStep max_dispatch_delay = 256;
};

/// Shared machinery of the SAP/RP/TWP/ACP baselines: the warehouse, the
/// space-time reservation table (their collision-avoidance state), a
/// space-time A* engine, and dispatch-delay handling.
///
/// All grid baselines share one speculative query/commit implementation
/// (core::Planner's split contract): the query phase is a plain space-time
/// A* against the reservation table — SAP's exact search; for RP/TWP/ACP a
/// conservative stand-in for their serial shortcutting (no replanning, no
/// window relaxation, no cache reuse), which keeps speculative routes
/// collision-free against the snapshot by construction. The reservation
/// table is only read during the query phase, so concurrent queries are
/// safe; CommitRoute reserves and logs like the serial paths do.
///
/// Route ids are *stable*: each commit draws a fresh id from a counter and
/// the id -> log-index mapping is maintained across releases, so RP's
/// id-keyed bookkeeping survives routes retiring out of the middle of the
/// log (ids are never reused; log indices shift).
class GridPlannerBase : public core::Planner {
 public:
  /// Per-worker query scratch: a private engine (engines accumulate
  /// per-search stats and workspace, so they cannot be shared across
  /// threads).
  struct SearchContext final : core::Planner::QueryContext {
    explicit SearchContext(const core::WarehouseMatrix& matrix)
        : engine(matrix) {}
    core::SpaceTimeAStar engine;
    std::size_t peak_search_bytes = 0;
  };

  GridPlannerBase(const core::WarehouseMatrix& matrix,
                  const GridPlannerOptions& options)
      : matrix_(matrix), options_(options), engine_(matrix) {
    if (options_.horizon <= 0) {
      options_.horizon = 4 * (matrix.height() + matrix.width());
    }
  }

  bool SupportsSpeculation() const override { return true; }

  std::unique_ptr<core::Planner::QueryContext> MakeQueryContext()
      const override {
    return std::make_unique<SearchContext>(matrix_);
  }

  std::optional<core::Route> QueryRoute(core::Planner::QueryContext& context,
                                        TimeStep now, GridCoord origin,
                                        GridCoord destination) const override {
    auto& ctx = static_cast<SearchContext&>(context);
    ++ctx.stats.queries;
    const auto start = EarliestFreeStart(origin, now);
    if (!start.has_value()) {
      ++ctx.stats.failures;
      return std::nullopt;
    }
    auto route = ctx.engine.Plan(reservations_, *start, origin, destination,
                                 MakeSearchOptions());
    const auto& s = ctx.engine.last_stats();
    ctx.stats.expanded_nodes += s.expanded;
    ctx.peak_search_bytes = std::max(
        ctx.peak_search_bytes, s.peak_open_bytes + s.peak_closed_bytes);
    if (!route.has_value()) {
      ++ctx.stats.failures;
      return std::nullopt;
    }
    return route;
  }

  void CommitRoute(const core::Route& route) override { Commit(route); }

  bool ReleaseRoute(const core::Route& route) override {
    // Newest equal entry, like the base planner: equal routes are
    // interchangeable.
    for (std::size_t i = route_log_.size(); i > 0; --i) {
      if (route_log_[i - 1] == route) {
        reservations_.Release(route_ids_[i - 1], route);
        EraseAt(i - 1);
        ++stats_.routes_released;
        return true;
      }
    }
    return false;
  }

  std::size_t PruneBefore(TimeStep t) override {
    reservations_.PruneBefore(t);
    // Retire the log entries whose reservations just vanished, newest to
    // oldest so each erase shifts only already-visited indices.
    std::size_t dropped = 0;
    for (std::size_t i = route_log_.size(); i > 0; --i) {
      if (route_log_[i - 1].end_time() < t) {
        EraseAt(i - 1);
        ++dropped;
      }
    }
    stats_.routes_pruned += static_cast<std::int64_t>(dropped);
    return dropped;
  }

  void AbsorbQueryContext(core::Planner::QueryContext& context) override {
    auto& ctx = static_cast<SearchContext&>(context);
    NoteExternalFootprint(ctx.peak_search_bytes);
    ctx.peak_search_bytes = 0;
    core::Planner::AbsorbQueryContext(context);
  }

  void Reset() override {
    reservations_.Clear();
    route_log_.clear();
    route_ids_.clear();
    id_index_.clear();
    next_route_id_ = 0;
    stats_ = core::PlannerStats{};
    peak_search_bytes_ = 0;
  }

  /// Reservation table, explicitly stored route sequences, and the peak
  /// space-time search footprint — the paper's MC records "data structures
  /// together with runtime space consumption during execution"
  /// (Sec. VIII-A), and the 3-D A* open/closed sets are what balloon on
  /// grid-based planners.
  std::size_t RetainedBytes() const override {
    return reservations_.RetainedBytes() +
           core::RoutesRetainedBytes(route_log_) + peak_search_bytes_;
  }

  const core::ReservationTable& reservations() const { return reservations_; }

  /// Committed-state counters plus a live overlay of the reservation
  /// table's erased-bucket count.
  const core::PlannerStats& stats() const override {
    stats_view_ = stats_;
    stats_view_.buckets_erased = reservations_.buckets_erased();
    return stats_view_;
  }

 protected:
  /// Engine options carrying the shared budgets. Const and thread-safe
  /// (speculative workers call it).
  core::SpaceTimeAStarOptions MakeSearchOptions() const {
    core::SpaceTimeAStarOptions search;
    search.horizon = options_.horizon;
    search.max_expansions = options_.max_expansions;
    return search;
  }

  /// Earliest t in [now, now + max_dispatch_delay] with `cell` free, or
  /// nullopt.
  std::optional<TimeStep> EarliestFreeStart(GridCoord cell,
                                            TimeStep now) const {
    for (TimeStep t = now; t <= now + options_.max_dispatch_delay; ++t) {
      if (reservations_.IsFree(cell, t)) return t;
    }
    return std::nullopt;
  }

  /// Reserves and logs a planned route; returns its (stable) id.
  core::RouteId Commit(const core::Route& route) {
    const core::RouteId id = next_route_id_++;
    reservations_.Reserve(id, route);
    id_index_[id] = route_log_.size();
    route_ids_.push_back(id);
    route_log_.push_back(route);
    return id;
  }

  /// True when `id` still names a committed route (it may have retired).
  bool IsLiveId(core::RouteId id) const { return id_index_.contains(id); }

  /// Log index of a live route id.
  std::size_t IndexOfId(core::RouteId id) const { return id_index_.at(id); }

  const core::Route& RouteOfId(core::RouteId id) const {
    return route_log_[IndexOfId(id)];
  }

  /// Replaces a live route in place (RP's joint replanning); the caller
  /// handles the reservation table.
  void ReplaceRoute(core::RouteId id, const core::Route& route) {
    route_log_[IndexOfId(id)] = route;
  }

  /// Subclasses mirror their per-route parallel arrays when a log entry
  /// retires; `index` is the entry's position before erasure.
  virtual void OnRouteErased(std::size_t index) { (void)index; }

  /// Erases log entry `index` and re-indexes the ids behind it.
  void EraseAt(std::size_t index) {
    id_index_.erase(route_ids_[index]);
    route_ids_.erase(route_ids_.begin() +
                     static_cast<std::ptrdiff_t>(index));
    route_log_.erase(route_log_.begin() +
                     static_cast<std::ptrdiff_t>(index));
    for (std::size_t i = index; i < route_ids_.size(); ++i) {
      id_index_[route_ids_[i]] = i;
    }
    OnRouteErased(index);
  }

  /// Folds the engine's last search into the expansion counter and the
  /// peak-MC tracker; serial planning paths call this after every
  /// engine_.Plan invocation.
  void NoteEngineSearch() {
    const auto& s = engine_.last_stats();
    stats_.expanded_nodes += s.expanded;
    NoteExternalFootprint(s.peak_open_bytes + s.peak_closed_bytes);
  }

  /// Folds an externally measured search footprint (e.g. CBS) into the
  /// peak-MC tracker.
  void NoteExternalFootprint(std::size_t bytes) {
    peak_search_bytes_ = std::max(peak_search_bytes_, bytes);
  }

  const core::WarehouseMatrix& matrix_;
  GridPlannerOptions options_;
  core::ReservationTable reservations_;
  core::SpaceTimeAStar engine_;
  std::size_t peak_search_bytes_ = 0;

  mutable core::PlannerStats stats_view_;

  // Stable id of each log entry (parallel to route_log_) and the inverse
  // id -> index map.
  std::vector<core::RouteId> route_ids_;
  std::unordered_map<core::RouteId, std::size_t> id_index_;
  core::RouteId next_route_id_ = 0;
};

}  // namespace carp::baselines

#endif  // CARP_BASELINES_GRID_PLANNER_BASE_H_
