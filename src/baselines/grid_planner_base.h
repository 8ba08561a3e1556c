#ifndef CARP_BASELINES_GRID_PLANNER_BASE_H_
#define CARP_BASELINES_GRID_PLANNER_BASE_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/logging.h"
#include "common/sharded_lock.h"
#include "core/heuristic_table.h"
#include "core/planner.h"
#include "core/reservation_table.h"
#include "core/sipp_astar.h"
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

  /// Lower bound guiding the shared space-time A* engine.
  core::HeuristicMode heuristic = core::HeuristicMode::kTable;

  /// Byte budget of the per-goal distance-table cache (table mode only).
  std::size_t heuristic_budget_bytes =
      core::HeuristicTableCache::Options{}.budget_bytes;

  /// Search engine (DESIGN.md §2k); kAuto resolves once at construction
  /// (CARP_FORCE_ENGINE, then the time-expanded default). The engines
  /// guarantee equal costs, not identical routes.
  core::SearchEngine engine = core::SearchEngine::kAuto;
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
  /// Per-worker query scratch: a private engine pair (engines accumulate
  /// per-search stats and workspace, so they cannot be shared across
  /// threads).
  struct SearchContext final : core::Planner::QueryContext {
    explicit SearchContext(const core::WarehouseMatrix& matrix)
        : engine(matrix) {}
    core::SearchEngineDriver engine;
    std::size_t peak_search_bytes = 0;
  };

  GridPlannerBase(const core::WarehouseMatrix& matrix,
                  const GridPlannerOptions& options)
      : matrix_(matrix), options_(options), engine_(matrix) {
    if (options_.horizon <= 0) {
      options_.horizon = 4 * (matrix.height() + matrix.width());
    }
    options_.engine = core::ResolveSearchEngine(options_.engine);
    if (options_.heuristic == core::HeuristicMode::kTable) {
      core::HeuristicTableCache::Options cache_options;
      cache_options.budget_bytes = options_.heuristic_budget_bytes;
      hcache_ = std::make_unique<core::HeuristicTableCache>(matrix_,
                                                            cache_options);
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
    std::shared_ptr<const core::HeuristicTable> keepalive;
    const auto search = MakeSearchOptions(destination, keepalive);
    auto route =
        ctx.engine.Plan(reservations_, *start, origin, destination, search);
    const auto& s = ctx.engine.last_stats();
    ctx.stats.expanded_nodes += s.expanded;
    ctx.stats.intervals_built += s.intervals_built;
    ctx.stats.interval_expansions += s.interval_expansions;
    ctx.peak_search_bytes = std::max(
        ctx.peak_search_bytes, s.peak_open_bytes + s.peak_closed_bytes);
    if (!route.has_value()) {
      ++ctx.stats.failures;
      return std::nullopt;
    }
    return route;
  }

  void CommitRoute(const core::Route& route) override { Commit(route); }

  /// Warms the destination's distance table on the pool; a later QueryRoute
  /// finds it built (or builds it itself — either way the same table, so
  /// routes are bit-identical with prefetch on or off).
  void PrefetchHeuristic(GridCoord destination,
                         ThreadPool* pool) const override {
    if (hcache_ == nullptr || pool == nullptr) return;
    if (!matrix_.InBounds(destination)) return;
    hcache_->Prefetch(destination, *pool);
  }

  /// Sharded-commit contract (DESIGN.md §2h), coarse-grained: the
  /// reservation table has no strip partition, so the whole planner is a
  /// single shard and concurrent commits serialize on one lock. What the
  /// contract still buys is uniformity — PlanBatch's sharded pipeline and
  /// the service front-end drive all six backends identically — and
  /// bit-identical ids: BeginShardedCommit draws the stable route id on
  /// the serial thread in priority order, so ids, the log and the id maps
  /// match the serial Commit path exactly regardless of which worker's
  /// Reserve lands first.
  bool SupportsShardedCommit() const override { return true; }
  std::size_t CommitShardCount() const override { return 1; }
  void ComputeShardFootprint(const core::Route& route,
                             std::vector<std::uint32_t>& out) const override {
    (void)route;
    out.assign(1, 0);
  }
  std::uint64_t BeginShardedCommit(const core::Route& route) override {
    (void)route;
    return static_cast<std::uint64_t>(next_route_id_++);
  }
  void CommitRouteSharded(const core::Route& route,
                          std::uint64_t ticket) override {
    static const std::vector<std::uint32_t> kWholePlanner{0};
    ShardLockSet::CommitGuard guard(commit_lock_, kWholePlanner);
    reservations_.Reserve(static_cast<core::RouteId>(ticket), route);
  }
  void NoteShardedCommitted(const core::Route& route,
                            std::uint64_t ticket) override {
    const core::RouteId id = static_cast<core::RouteId>(ticket);
    id_index_[id] = route_log_.size();
    route_ids_.push_back(id);
    route_log_.push_back(route);
  }

  bool ReleaseRoute(const core::Route& route) override {
    // Newest equal entry, like the base planner: equal routes are
    // interchangeable, and the one most recently committed is the one a
    // speculative rollback targets.
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
    commit_lock_.ResetStats();
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

  /// Committed-state counters plus a live overlay of the shared
  /// heuristic-cache counters (the cache is planner-lifetime state that
  /// serial paths and speculative workers hit alike, so its totals live
  /// there rather than in per-context stats).
  const core::PlannerStats& stats() const override {
    stats_view_ = stats_;
    if (hcache_ != nullptr) {
      const auto h = hcache_->stats();
      stats_view_.heuristic_hits = h.hits;
      stats_view_.heuristic_misses = h.misses;
      stats_view_.heuristic_evictions = h.evictions;
      stats_view_.heuristic_bytes = h.bytes;
      stats_view_.heuristic_rebuilds = h.rebuilds;
      stats_view_.heuristic_prefetch_scheduled = h.prefetch_scheduled;
      stats_view_.heuristic_prefetch_hits = h.prefetch_hits;
      stats_view_.heuristic_prefetch_late = h.prefetch_late;
      stats_view_.heuristic_build_seconds = h.build_seconds;
      stats_view_.heuristic_prefetch_build_seconds = h.prefetch_build_seconds;
    }
    const ShardLockSet::Stats sl = commit_lock_.stats();
    stats_view_.shard_commits = sl.commits;
    stats_view_.shard_lock_contentions = sl.contentions;
    stats_view_.shard_commit_retries = sl.retries;
    stats_view_.search_engine = options_.engine;  // resolved, never kAuto
    stats_view_.buckets_erased = reservations_.buckets_erased();
    return stats_view_;
  }

 protected:
  /// Engine options for a search toward `destination`: the shared budgets
  /// plus, in table mode, the destination's true-distance table (built on
  /// first use; nullptr fallback to Manhattan only when one table exceeds
  /// the byte budget). `keepalive` pins the table snapshot for the duration
  /// of the caller's Plan — eviction can drop the cache's reference
  /// mid-search. Const and thread-safe (speculative workers call it).
  core::SpaceTimeAStarOptions MakeSearchOptions(
      GridCoord destination,
      std::shared_ptr<const core::HeuristicTable>& keepalive) const {
    core::SpaceTimeAStarOptions search;
    search.horizon = options_.horizon;
    search.max_expansions = options_.max_expansions;
    search.engine = options_.engine;  // resolved at construction, never kAuto
    if (hcache_ != nullptr) {
      keepalive = hcache_->Acquire(destination);
      search.heuristic = keepalive.get();
    }
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

  /// Folds the engine's last search footprint into the peak-MC tracker;
  /// call after every engine_.Plan invocation.
  void NoteSearchFootprint() {
    const auto& s = engine_.last_stats();
    NoteExternalFootprint(s.peak_open_bytes + s.peak_closed_bytes);
  }

  /// Folds the engine's last search counters into `stats` (expansions plus
  /// the interval-engine counters); serial planning paths call this after
  /// every engine_.Plan invocation.
  void TallyEngineSearch(core::PlannerStats& stats) const {
    const auto& s = engine_.last_stats();
    stats.expanded_nodes += s.expanded;
    stats.intervals_built += s.intervals_built;
    stats.interval_expansions += s.interval_expansions;
  }

  /// Folds an externally measured search footprint (e.g. CBS) into the
  /// peak-MC tracker.
  void NoteExternalFootprint(std::size_t bytes) {
    peak_search_bytes_ = std::max(peak_search_bytes_, bytes);
  }

  const core::WarehouseMatrix& matrix_;
  GridPlannerOptions options_;
  core::ReservationTable reservations_;
  core::SearchEngineDriver engine_;
  std::size_t peak_search_bytes_ = 0;

  // Shared per-goal distance tables (null in Manhattan mode). Deliberately
  // survives Reset(): tables are pure functions of the matrix, so a warm
  // cache changes no answers. Excluded from RetainedBytes() — the paper's
  // MC metric records collision-avoidance state, and the cache is a
  // bounded, configuration-controlled accelerator reported separately via
  // PlannerStats::heuristic_bytes.
  std::unique_ptr<core::HeuristicTableCache> hcache_;
  mutable core::PlannerStats stats_view_;

  // Stable id of each log entry (parallel to route_log_) and the inverse
  // id -> index map.
  std::vector<core::RouteId> route_ids_;
  std::unordered_map<core::RouteId, std::size_t> id_index_;
  core::RouteId next_route_id_ = 0;

  // The single "shard" of the coarse-grained sharded-commit contract: one
  // lock over the whole reservation table, with the same contention
  // telemetry the SRP shards report.
  ShardLockSet commit_lock_{1};
};

}  // namespace carp::baselines

#endif  // CARP_BASELINES_GRID_PLANNER_BASE_H_
