#ifndef CARP_CORE_PLANNER_H_
#define CARP_CORE_PLANNER_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/memory_accounting.h"
#include "common/types.h"
#include "core/kernel_dispatch.h"
#include "core/route.h"
#include "core/search_engine.h"

namespace carp {
class ThreadPool;
}  // namespace carp

namespace carp::core {

/// Why SRP escalated a query to its A* fallback (DESIGN.md §2a: the first
/// strip pass keeps one label per strip, the rescue pass several).
enum class FallbackReason : std::uint8_t {
  /// The first pass's open list ran dry without ever reaching a strip at a
  /// second entry, so the rescue pass would repeat it step for step.
  kFirstPassExhausted,
  /// The strip passes settled `max_strip_expansions` labels between them.
  kSettledCap,
  /// Reaching the destination from inside its strip failed on more than 8
  /// entries.
  kFinalLegGiveUp,
  /// The rescue pass's open list ran dry as well.
  kRescueExhausted,
};
inline constexpr std::size_t kFallbackReasonCount = 4;

/// Aggregate counters every planner maintains; consumed by the benchmark
/// harness.
struct PlannerStats {
  std::int64_t queries = 0;
  std::int64_t failures = 0;        // no route found within budget
  std::int64_t fallbacks = 0;       // SRP: calls escalated to A* (Sec. VI)
  std::int64_t rescues = 0;  // SRP: failed first passes the rescue answered
  // SRP: fallbacks by FallbackReason (they sum to `fallbacks`).
  std::array<std::int64_t, kFallbackReasonCount> fallback_reasons{};
  std::int64_t replans = 0;         // RP: routes replanned due to conflicts
  std::int64_t cache_hits = 0;      // ACP: cached path reuses
  std::int64_t static_path_hits = 0;  // SRP: static-first chains timed OK
  std::int64_t expanded_nodes = 0;  // A*-family: total node expansions
  std::int64_t speculative_routes = 0;       // batch: speculative successes
  std::int64_t speculative_invalidated = 0;  // batch: rejected at commit
  std::int64_t routes_released = 0;  // lifecycle: routes retired one-by-one
  std::int64_t routes_pruned = 0;    // lifecycle: routes dropped wholesale
  // Always zero: every search is bounded by (weighted) Manhattan and no
  // planner builds per-goal distance tables. Kept, with HeuristicHitRate()
  // and Planner::PrefetchHeuristic, only because the frozen daybench/
  // sources read them; deleted with the next benchmark change.
  std::int64_t heuristic_hits = 0;
  std::int64_t heuristic_misses = 0;
  std::int64_t heuristic_evictions = 0;
  std::int64_t heuristic_rebuilds = 0;
  std::size_t heuristic_bytes = 0;
  std::int64_t heuristic_prefetch_late = 0;
  double heuristic_build_seconds = 0;
  double heuristic_prefetch_build_seconds = 0;
  // SRP collision kernel (see SegmentStoreStats), counted by each query's
  // store probes: pairwise predicate evaluations, block-summary skip/scan
  // balance, and candidates excluded without a predicate call.
  std::int64_t candidates_examined = 0;
  std::int64_t blocks_scanned = 0;
  std::int64_t blocks_skipped = 0;
  std::int64_t candidates_pruned_by_summary = 0;
  // SRP lane kernel (DESIGN.md §2g): slots evaluated by the AVX2
  // survivor kernel and the subset that survived every lane prefilter
  // (zero under the scalar kernel, which scans slot by slot).
  std::int64_t kernel_lanes_processed = 0;
  std::int64_t kernel_lanes_survived = 0;
  // Sharded commit path (DESIGN.md §2h): routes committed concurrently
  // through shard-footprint locks, guards whose opportunistic try-lock
  // sweep hit a held shard, and the re-acquisition passes those guards
  // needed. All zero on the serial commit path.
  std::int64_t shard_commits = 0;
  std::int64_t shard_lock_contentions = 0;
  std::int64_t shard_commit_retries = 0;
  /// Survivor-scan kernel the segment stores resolved to — a label, not a
  /// counter (untouched by Merge; set by the owning planner).
  CollisionKernel collision_kernel = CollisionKernel::kScalar;
  // Always astar (see core/search_engine.h); deleted with the next
  // benchmark change.
  SearchEngine search_engine = SearchEngine::kAstar;
  /// Time buckets the collision state physically erased (emptied by
  /// release or dropped by prune): counted by SRP's release and prune
  /// paths, overlaid by the grid planners from their reservation table.
  std::int64_t buckets_erased = 0;

  std::int64_t FallbacksFor(FallbackReason reason) const {
    return fallback_reasons[static_cast<std::size_t>(reason)];
  }

  /// Fraction of speculative routes invalidated by an earlier commit —
  /// the contention signal of the parallel batch planner.
  double SpeculationConflictRate() const {
    return speculative_routes == 0
               ? 0.0
               : static_cast<double>(speculative_invalidated) /
                     static_cast<double>(speculative_routes);
  }

  /// Field-wise sum of every counter; the labels (collision_kernel,
  /// search_engine) are left alone. Used when per-worker query counters
  /// are folded back into the planner after a parallel batch.
  void Merge(const PlannerStats& other) {
    queries += other.queries;
    failures += other.failures;
    fallbacks += other.fallbacks;
    rescues += other.rescues;
    for (std::size_t r = 0; r < kFallbackReasonCount; ++r) {
      fallback_reasons[r] += other.fallback_reasons[r];
    }
    replans += other.replans;
    cache_hits += other.cache_hits;
    static_path_hits += other.static_path_hits;
    expanded_nodes += other.expanded_nodes;
    speculative_routes += other.speculative_routes;
    speculative_invalidated += other.speculative_invalidated;
    routes_released += other.routes_released;
    routes_pruned += other.routes_pruned;
    heuristic_hits += other.heuristic_hits;
    heuristic_misses += other.heuristic_misses;
    heuristic_evictions += other.heuristic_evictions;
    heuristic_rebuilds += other.heuristic_rebuilds;
    heuristic_bytes += other.heuristic_bytes;
    heuristic_prefetch_late += other.heuristic_prefetch_late;
    heuristic_build_seconds += other.heuristic_build_seconds;
    heuristic_prefetch_build_seconds += other.heuristic_prefetch_build_seconds;
    candidates_examined += other.candidates_examined;
    blocks_scanned += other.blocks_scanned;
    blocks_skipped += other.blocks_skipped;
    candidates_pruned_by_summary += other.candidates_pruned_by_summary;
    kernel_lanes_processed += other.kernel_lanes_processed;
    kernel_lanes_survived += other.kernel_lanes_survived;
    shard_commits += other.shard_commits;
    shard_lock_contentions += other.shard_lock_contentions;
    shard_commit_retries += other.shard_commit_retries;
    buckets_erased += other.buckets_erased;
  }

  /// Fraction of sharded commits whose lock sweep hit a held shard — the
  /// footprint-overlap signal of the concurrent commit path.
  double ShardContentionRate() const {
    return shard_commits == 0
               ? 0.0
               : static_cast<double>(shard_lock_contentions) /
                     static_cast<double>(shard_commits);
  }

  /// Fraction of summary blocks the collision kernel skipped outright.
  double BlockSkipRate() const {
    const std::int64_t total = blocks_scanned + blocks_skipped;
    return total == 0 ? 0.0
                      : static_cast<double>(blocks_skipped) /
                            static_cast<double>(total);
  }

  /// Fraction of lane-kernel slots that survived every vectorized
  /// prefilter (and therefore reached the exact predicate). Low values
  /// mean the lanes are doing the pruning work.
  double LaneUtilization() const {
    return kernel_lanes_processed == 0
               ? 0.0
               : static_cast<double>(kernel_lanes_survived) /
                     static_cast<double>(kernel_lanes_processed);
  }

  /// Always zero (see heuristic_hits).
  double HeuristicHitRate() const {
    const std::int64_t total = heuristic_hits + heuristic_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(heuristic_hits) /
                            static_cast<double>(total);
  }
};

/// The online CARP planner interface (Def. 3).
///
/// A planner receives origin-destination queries one at a time, in
/// emergence order, and must return a route that is collision-free against
/// every route it has previously committed. Returned routes are committed
/// immediately (the online setting of Sec. II). `PlanRoute` may start the
/// route later than `now` (delayed dispatch) when the origin cell is
/// occupied at `now`; the delay counts against the makespan.
///
/// ## Speculative query/commit split
///
/// Planners that set SupportsSpeculation() additionally split the plan
/// cycle into a *query* phase and a *commit* phase, so a batch of queries
/// can be planned concurrently and reconciled afterwards
/// (core::PlanBatch's validate-and-commit pipeline):
///
///  - QueryRoute() is const and must be safe to call from multiple threads
///    at once, each thread passing its own QueryContext. It searches
///    against the planner's *current committed state* (the frozen
///    snapshot) and returns a route collision-free against that state —
///    without committing anything. All per-query scratch (labels, open
///    lists, counters) lives in the QueryContext.
///  - CommitRoute() inserts a route previously returned by QueryRoute (or
///    PlanRoute on another planner instance) into the committed state. It
///    mutates the planner and must be called from one thread at a time,
///    with no concurrent QueryRoute in flight.
///  - AbsorbQueryContext() folds a context's counters back into stats()
///    once the batch is done.
///
/// PlanRoute remains the serial contract: exactly query + commit in one
/// call. Parallel drivers must not interleave PlanRoute with an active
/// query phase.
///
/// ## Sharded concurrent commit
///
/// Planners that additionally set SupportsShardedCommit() partition their
/// committed state into ownership shards (SRP: disjoint strip groups; grid
/// baselines: one coarse shard over the reservation table) and split the
/// commit of an *accepted* route into three hooks, so PlanBatch can run
/// state insertion concurrently while every ordering-sensitive decision
/// stays on the driving thread (DESIGN.md §2h):
///
///  - BeginShardedCommit() — serial, called in commit (priority) order the
///    moment a route is accepted; performs any bookkeeping whose order must
///    match the serial path (e.g. drawing a stable route id) and returns a
///    ticket passed to the other two hooks.
///  - CommitRouteSharded() — thread-safe; inserts the route's collision
///    state only, acquiring the shard locks of the route's footprint in
///    canonical order internally. Distinct routes commute: disjoint
///    footprints run fully in parallel, overlapping ones serialize on the
///    shared shards, and because shard state is multiset-shaped the final
///    committed state is identical regardless of interleaving.
///  - NoteShardedCommitted() — serial, called in commit order after every
///    CommitRouteSharded of the wave has finished (the driver barriers on
///    the pool); appends the route log entry and any other serial-order
///    bookkeeping, so committed_routes() is byte-identical to the serial
///    path. OnShardedFlush() then runs once per flush, at a point where
///    state and log agree — the safe place for sampled lifecycle audits.
///
/// The accept/reject decision itself never moves off the driving thread,
/// which is what keeps the whole pipeline bit-identical to serial commit.
///
/// ## Route lifecycle
///
/// Committed state is a window, not an append-only log. Two retirement
/// paths bound it:
///
///  - ReleaseRoute() retires one committed route — the simulator calls it
///    when a robot completes a stage, and the batch planner calls it to
///    undo a speculative commit that lost validation. Releasing is only
///    legal when every future query's emergence time is >= the released
///    route's end time (all planners probe forward from `now`, so state
///    wholly in the past cannot influence any future answer).
///  - PruneBefore(t) drops *all* state that ends strictly before `t` in
///    one sweep (segments, reservations, crossings, log entries) — the
///    epoch-cadence safety net for routes that were never individually
///    released. Callers guarantee no future query emerges before `t`.
///
/// Both are best-effort idempotent: releasing a route whose state was
/// already pruned simply returns false.
class Planner : public MemoryMetered {
 public:
  /// Per-worker scratch state of the speculative query phase. Planners
  /// subclass this with their search workspace; the base carries the
  /// counters every query accumulates.
  class QueryContext {
   public:
    virtual ~QueryContext() = default;

    /// Counters accumulated by QueryRoute calls through this context;
    /// folded into the planner by AbsorbQueryContext.
    PlannerStats stats;
  };

  ~Planner() override = default;

  /// Plans and commits a route from `origin` to `destination` emerging at
  /// time `now`. Returns nullopt when no route exists within the planner's
  /// search budget (counted in stats().failures; the route set stays
  /// unchanged).
  virtual std::optional<Route> PlanRoute(TimeStep now, GridCoord origin,
                                         GridCoord destination) = 0;

  /// True when this planner implements the speculative query/commit split
  /// (QueryRoute / CommitRoute below).
  virtual bool SupportsSpeculation() const { return false; }

  /// Creates a per-worker scratch context for QueryRoute. Returns nullptr
  /// when speculation is unsupported.
  virtual std::unique_ptr<QueryContext> MakeQueryContext() const {
    return nullptr;
  }

  /// Const, thread-safe query phase: plans against the current committed
  /// state without mutating it. `context` must have been produced by this
  /// planner's MakeQueryContext and must not be shared across threads.
  /// Default: speculation unsupported, always fails.
  virtual std::optional<Route> QueryRoute(QueryContext& context, TimeStep now,
                                          GridCoord origin,
                                          GridCoord destination) const {
    (void)context;
    (void)now;
    (void)origin;
    (void)destination;
    return std::nullopt;
  }

  /// Mutating commit phase: inserts `route` into the committed state and
  /// the route log. The caller guarantees `route` is collision-free
  /// against everything committed so far (PlanBatch's validation pass).
  /// Default: record-only (planners with collision state must override).
  virtual void CommitRoute(const Route& route) { route_log_.push_back(route); }

  /// Retires one committed route, removing its collision state and its
  /// route-log entry. Returns false when the route is not (or no longer)
  /// committed — e.g. its state was already dropped by PruneBefore.
  /// Default: record-only planners just erase the log entry; planners with
  /// collision state must override and release it through the same path
  /// their commit used.
  virtual bool ReleaseRoute(const Route& route) {
    if (!EraseFromLog(route)) return false;
    ++stats_.routes_released;
    return true;
  }

  /// Drops every committed route (and all derived collision state) whose
  /// end time lies strictly before `t`. Returns the number of routes
  /// dropped from the log. The caller guarantees that no future query
  /// emerges before `t`.
  virtual std::size_t PruneBefore(TimeStep t) {
    const std::size_t dropped = PruneLog(t);
    stats_.routes_pruned += static_cast<std::int64_t>(dropped);
    return dropped;
  }

  /// True when this planner implements the sharded concurrent-commit split
  /// (BeginShardedCommit / CommitRouteSharded / NoteShardedCommitted).
  virtual bool SupportsShardedCommit() const { return false; }

  /// Number of ownership shards the committed state is partitioned into
  /// (>= 1 when sharded commit is supported; 0 otherwise).
  virtual std::size_t CommitShardCount() const { return 0; }

  /// Writes the sorted, duplicate-free shard footprint of `route` — the
  /// shards its commit mutates — into `out` (cleared first). Derived from
  /// the same canonical decomposition the commit itself uses, so the
  /// footprint provably covers every mutated shard.
  virtual void ComputeShardFootprint(const Route& route,
                                     std::vector<std::uint32_t>& out) const {
    (void)route;
    out.clear();
  }

  /// Serial pre-commit hook of the sharded path: called in commit order on
  /// the driving thread when `route` is accepted, before its state commit
  /// is dispatched. Returns an opaque ticket forwarded to the other two
  /// hooks (grid baselines pre-draw the stable route id here so ids match
  /// the serial path exactly).
  virtual std::uint64_t BeginShardedCommit(const Route& route) {
    (void)route;
    return 0;
  }

  /// Thread-safe state-only commit of an accepted route: inserts collision
  /// state under the route's shard locks, touching no serial structures
  /// (route log, id maps, plain counters). Only meaningful when
  /// SupportsShardedCommit(); the default is fatal.
  virtual void CommitRouteSharded(const Route& route, std::uint64_t ticket) {
    (void)route;
    (void)ticket;
    CARP_CHECK(false) << name() << " does not support sharded commit";
  }

  /// Serial post-commit hook: called in commit order once the route's
  /// CommitRouteSharded (and every earlier one of the wave) has finished.
  /// Appends the route-log entry; planners add their ordered bookkeeping.
  virtual void NoteShardedCommitted(const Route& route, std::uint64_t ticket) {
    (void)ticket;
    route_log_.push_back(route);
  }

  /// Serial hook run once after each flush of NoteShardedCommitted calls,
  /// at a point where committed state and route log agree — the safe spot
  /// for sampled lifecycle audits deferred off the concurrent path.
  virtual void OnShardedFlush() {}

  /// Cost of one committed route under the planner's objective — the
  /// paper's per-route completion term st_r + |G_r| from the total-cost
  /// sum of Eq. (1). Refinement drivers (lns::LnsRefiner) compute their
  /// accept/reject decision as a sum of this hook over the neighborhood,
  /// so acceptance means the same thing on every backend; a planner with a
  /// different objective overrides it once and every driver follows.
  virtual std::int64_t RouteCost(const Route& route) const {
    return static_cast<std::int64_t>(route.finish_term());
  }

  /// Order-independent digest of the committed collision state, for
  /// rollback bit-identity checks: a failed LNS repair must leave the
  /// planner at exactly the fingerprint it started from. The default
  /// hashes the route log as a multiset (commit order is bookkeeping, not
  /// collision state — a rollback legally re-appends at the tail).
  /// Planners with derived collision state (SRP's segment stores, the
  /// crossing registry, the shard ledger) override and fold that state in,
  /// so a repair that leaks or loses a single segment changes the digest.
  virtual std::uint64_t StateFingerprint() const {
    std::uint64_t digest = 0;
    for (const Route& route : route_log_) digest += HashRoute(route);
    return digest;
  }

  /// True when ReleaseRoute removes *exactly* the released route's
  /// contribution even while conflicting routes are committed alongside it
  /// (multiset-style collision state). Enables PlanBatch's optimistic
  /// commit-then-validate pipeline, whose losers retire through
  /// ReleaseRoute. Planners with exclusive-occupancy state (the grid
  /// reservation table) must leave this false: committing two conflicting
  /// routes at once is illegal there.
  virtual bool SupportsExactRelease() const { return false; }

  /// Number of routes currently committed (the live window).
  std::size_t live_routes() const { return route_log_.size(); }

  /// Folds a query context's counters (and any planner-specific peaks)
  /// back into this planner. Resets the context's counters so absorbing
  /// twice cannot double-count.
  virtual void AbsorbQueryContext(QueryContext& context) {
    stats_.Merge(context.stats);
    context.stats = PlannerStats{};
  }

  /// Records the outcome of a speculative batch: how many speculative
  /// routes were produced and how many an earlier commit invalidated.
  void NoteSpeculation(std::int64_t routes, std::int64_t invalidated) {
    stats_.speculative_routes += routes;
    stats_.speculative_invalidated += invalidated;
  }

  /// No-op on every planner (see PlannerStats::heuristic_hits): kept
  /// virtual only because the frozen daybench/ TracedPlanner overrides it.
  virtual void PrefetchHeuristic(GridCoord destination,
                                 ThreadPool* pool) const {
    (void)destination;
    (void)pool;
  }

  /// Algorithm tag used in benchmark output ("SAP", "RP", "TWP", "ACP",
  /// "SRP").
  virtual std::string_view name() const = 0;

  /// Discards all committed routes and internal state.
  virtual void Reset() = 0;

  /// All routes committed so far, in commit order. Used by tests and the
  /// simulator's safety net to assert the collision-free invariant. For
  /// planners whose algorithm does not itself require retained route
  /// sequences (SRP), this log is excluded from RetainedBytes().
  const std::vector<Route>& committed_routes() const { return route_log_; }

  /// Virtual so planners can overlay counters their live structures keep
  /// (segment-store scans, shard locks) onto the returned snapshot.
  virtual const PlannerStats& stats() const { return stats_; }

 protected:
  /// 64-bit finalizer (splitmix64) shared by the fingerprint helpers.
  static std::uint64_t Mix64(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Position-sensitive hash of one route (start time + cell sequence).
  /// Summing these per-route hashes yields the multiset digest
  /// StateFingerprint defaults to.
  static std::uint64_t HashRoute(const Route& route) {
    std::uint64_t h = Mix64(static_cast<std::uint64_t>(route.start_time()) +
                            0x9e3779b97f4a7c15ULL);
    for (const GridCoord& c : route.cells()) {
      const std::uint64_t cell =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.row))
           << 32) |
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.col));
      h = Mix64(h ^ cell);
    }
    return h;
  }

  /// Erases the newest log entry equal to `route` (any equal entry is
  /// interchangeable); false when absent.
  bool EraseFromLog(const Route& route) {
    for (std::size_t i = route_log_.size(); i > 0; --i) {
      if (route_log_[i - 1] == route) {
        route_log_.erase(route_log_.begin() +
                         static_cast<std::ptrdiff_t>(i - 1));
        return true;
      }
    }
    return false;
  }

  /// Erases every log entry that ends strictly before `t`; returns the
  /// count.
  std::size_t PruneLog(TimeStep t) {
    const std::size_t before = route_log_.size();
    std::erase_if(route_log_,
                  [t](const Route& r) { return r.end_time() < t; });
    return before - route_log_.size();
  }

  std::vector<Route> route_log_;
  PlannerStats stats_;
};

}  // namespace carp::core

#endif  // CARP_CORE_PLANNER_H_
