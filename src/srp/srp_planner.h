#ifndef CARP_SRP_SRP_PLANNER_H_
#define CARP_SRP_SRP_PLANNER_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/audit.h"
#include "common/sharded_lock.h"
#include "common/timer.h"
#include "common/types.h"
#include "core/bucket_queue.h"
#include "core/planner.h"
#include "core/spacetime_astar.h"
#include "core/warehouse.h"
#include "srp/boundary_crossings.h"
#include "srp/intra_strip_planner.h"
#include "srp/route_conversion.h"
#include "srp/segment_store.h"
#include "srp/shard_map.h"
#include "srp/strip_graph.h"

namespace carp::srp {

/// Tunables of the end-to-end SRP planner.
struct SrpPlannerOptions {
  /// Use the slope-based segment index (Sec. V-D) instead of the
  /// start-time-sorted store of Sec. V-B. Off by default: with block
  /// summaries on, the sorted store judges fewer candidates and answers
  /// faster on the day (DESIGN.md §2f). The Fig. 22 ablation and the
  /// "SRP-indexed" factory tag turn it on; answers are identical.
  bool use_slope_index = false;

  /// Use the block-summary pass of the segment stores' collision kernel
  /// (DESIGN.md §2f). false degrades every store scan to the flat
  /// predicate-per-candidate form; answers are identical either way (the
  /// kernel-bench ablation and the differential fuzzer toggle this).
  bool use_summary_pruning = true;

  /// Survivor-scan kernel of the stores' per-block lane pass (DESIGN.md
  /// §2g): portable scalar or AVX2 intrinsics. kAuto resolves at store
  /// construction via CPUID and the CARP_FORCE_KERNEL environment
  /// override; answers and scan counters are identical across kernels.
  core::CollisionKernel kernel = core::CollisionKernel::kAuto;

  /// Order the inter-strip search by arrival + Manhattan lower bound
  /// instead of plain Dijkstra. A goal-direction engineering optimisation
  /// on top of Alg. 4; semantics are unchanged (the bound is admissible).
  bool use_goal_heuristic = true;

  /// Weight applied to the goal heuristic (weighted A*). Values > 1 trade
  /// a bounded amount of route quality for a much smaller inter-strip
  /// search frontier; 1.0 keeps the ordering admissible.
  double heuristic_weight = 1.25;

  /// Geodesic-tube pruning: skip relaxations whose lower-bounded cost plus
  /// heuristic exceeds the parent's by more than this slack (grids).
  /// Restricts the inter-strip search to near-shortest corridors — the
  /// rare query needing a wide detour escalates to the A* fallback
  /// instead of flooding the strip graph. Negative disables.
  std::int64_t detour_slack = 6;

  /// Intra-strip backtracking budgets (Alg. 2).
  IntraPlanOptions intra;

  /// Maximum strip labels settled per query, by both strip passes
  /// together, before escalating to the fallback.
  std::int64_t max_strip_expansions = 65'536;

  /// Maximum wait at a strip's exit cell for a boundary crossing to clear.
  TimeStep max_cross_wait = 24;

  /// Maximum dispatch delay when the origin cell is briefly occupied at
  /// query time.
  TimeStep max_dispatch_delay = 128;

  /// Fallback space-time A* budgets. A horizon <= 0 means "derive from the
  /// warehouse perimeter"; the resolved value lives in the planner (the
  /// options object itself is never mutated — options() returns exactly
  /// what the caller passed).
  core::SpaceTimeAStarOptions fallback;

  /// Plan with the two-phase fast path first: a probe-free *static* A* on
  /// the strip graph picks the corridor chain (biased away from busy
  /// strips), then a single timing pass schedules it against the segment
  /// stores. Queries whose static chain cannot be timed escalate to the
  /// full time-dependent search. Off by default: at the congestion levels
  /// of the paper's workloads the chain fails to time often enough that
  /// the retry overhead cancels the probe-free savings (see the
  /// micro_planners bench for the ablation).
  bool use_static_first = false;

  /// Ownership shards of the concurrent commit path (DESIGN.md §2h).
  /// Strips are assigned to shards round-robin; a route's commit locks
  /// exactly the shards its strips map to, so commits with disjoint
  /// footprints run in parallel. 0 = auto (16 — enough that footprints of
  /// a few-strip route rarely collide, few enough that the lock sweep
  /// stays cheap). 1 degrades to a single coarse commit lock.
  std::size_t commit_shards = 0;

  /// Record the Fig. 22a inter/intra/conversion wall-clock breakdown.
  /// Off by default: the per-probe stopwatch reads would tax the planning
  /// path they are meant to measure. Only the serial PlanRoute path is
  /// timed — concurrent speculative queries skip the (shared) stopwatches.
  bool enable_time_breakdown = false;
};

/// Wall-clock decomposition of planning work (Fig. 22a): inter-strip
/// search, intra-strip planning (collision detection + backtracking), and
/// conversion/commit between strip- and grid-based representations.
struct SrpTimeBreakdown {
  double inter_seconds = 0;
  double intra_seconds = 0;
  double conversion_seconds = 0;
};

/// The Strip-based Route Planning framework (Sec. III-VI).
///
/// Given a warehouse matrix, aggregates grids into strips once (Alg. 1),
/// then serves online CARP queries by inter-strip shortest-path search
/// (Alg. 4) whose edge weights are produced on demand by intra-strip
/// segment planning (Alg. 2) over per-strip segment stores. When that
/// search fails, a rescue pass reruns it with several labels per strip
/// (DESIGN.md §2a); queries neither pass can serve (Sec. VI: no backward
/// moves within strips, greedy transits) escalate to a space-time A*
/// fallback over the same segment state — the paper reports this happens
/// on the order of 1e-5 of queries.
///
/// Implements the speculative query/commit split (core::Planner): all
/// per-query search state (strip labels, epoch stamps, the fallback A*
/// engine) lives in a Search workspace, one per worker, so concurrent
/// QueryRoute calls only ever *read* the shared segment stores, boundary
/// crossings and strip graph. CommitRoute re-derives the strip legs from
/// the committed grid route (PathFromRoute) — the same conversion the A*
/// fallback has always committed through.
class SrpPlanner final : public core::Planner {
 public:
  explicit SrpPlanner(const core::WarehouseMatrix& matrix,
                      const SrpPlannerOptions& options = {});

  std::optional<core::Route> PlanRoute(TimeStep now, GridCoord origin,
                                       GridCoord destination) override;

  bool SupportsSpeculation() const override { return true; }
  std::unique_ptr<core::Planner::QueryContext> MakeQueryContext()
      const override;
  std::optional<core::Route> QueryRoute(core::Planner::QueryContext& context,
                                        TimeStep now, GridCoord origin,
                                        GridCoord destination) const override;
  void CommitRoute(const core::Route& route) override;
  bool ReleaseRoute(const core::Route& route) override;
  std::size_t PruneBefore(TimeStep t) override;

  /// Segment stores and boundary crossings are multisets, and every commit
  /// goes through the canonical PathFromRoute decomposition, so a release
  /// removes exactly the released route's contribution — even while a
  /// conflicting speculative sibling is committed (PlanBatch's optimistic
  /// commit-then-validate path).
  bool SupportsExactRelease() const override { return true; }

  /// Sharded concurrent commit (DESIGN.md §2h): footprints come from the
  /// same canonical PathFromRoute decomposition every commit and release
  /// uses, so the shards a commit locks are exactly the shards it mutates
  /// (segments of each leg's strip, plus crossings owned by the departing
  /// leg's strip — always in the footprint).
  bool SupportsShardedCommit() const override { return true; }
  std::size_t CommitShardCount() const override {
    return shard_map_.shard_count();
  }
  void ComputeShardFootprint(const core::Route& route,
                             std::vector<std::uint32_t>& out) const override;
  void CommitRouteSharded(const core::Route& route,
                          std::uint64_t ticket) override;
  void NoteShardedCommitted(const core::Route& route,
                            std::uint64_t ticket) override;
  void OnShardedFlush() override;

  const ShardMap& shard_map() const { return shard_map_; }
  const ShardLockSet& shard_locks() const { return shard_locks_; }

  /// Order-independent digest of the *derived* collision state: every live
  /// segment of every strip store, the boundary-crossing registries
  /// (multiplicities included), and the per-shard live-segment ledger —
  /// plus the base route-log multiset. This is the rollback bit-identity
  /// gate of the LNS refiner: a failed repair that loses or leaks one
  /// segment, crossing, or ledger count changes the digest even when the
  /// route log looks intact.
  std::uint64_t StateFingerprint() const override;

  void AbsorbQueryContext(core::Planner::QueryContext& context) override;

  std::string_view name() const override { return "SRP"; }
  void Reset() override;

  /// Segments + boundary crossings + strip graph + peak per-query search
  /// footprint. The committed-route log kept for validation is *not*
  /// algorithm state and is excluded (the paper's MC comparison,
  /// Sec. VIII-B).
  std::size_t RetainedBytes() const override;

  const StripGraph& strip_graph() const { return graph_; }
  const SrpPlannerOptions& options() const { return options_; }

  /// The fallback horizon actually in effect (>= the caller's value,
  /// floored by the warehouse perimeter).
  TimeStep effective_fallback_horizon() const {
    return fallback_options_.horizon;
  }

  /// Total stored segments across strips.
  std::size_t SegmentCount() const;

  /// Largest SegmentCount() observed across the planner's lifetime —
  /// sampled incrementally at every commit, so end-of-day reports can show
  /// the day's working-set peak even after all routes were released.
  std::size_t peak_segment_count() const { return peak_segments_; }

  /// The planner's own counters plus an overlay of the shard locks' live
  /// counters; O(1). The stores count into the stats of the call using
  /// them (ScopedStatsSink), so nothing aggregates on read.
  const core::PlannerStats& stats() const override {
    stats_view_ = stats_;
    const ShardLockSet::Stats sl = shard_locks_.stats();
    stats_view_.shard_commits = sl.commits;
    stats_view_.shard_lock_contentions = sl.contentions;
    stats_view_.shard_commit_retries = sl.retries;
    return stats_view_;
  }

  SrpTimeBreakdown time_breakdown() const;

  /// Full lifecycle audit (DESIGN.md §2d). Replays committed_routes()
  /// through the canonical PathFromRoute decomposition, drops whatever
  /// PruneBefore already dropped (tracked cutoff), and demands the result
  /// reproduces the segment stores and the crossing registry exactly —
  /// stores ⇄ route log ⇄ BoundaryCrossings, multiplicities included.
  /// Also runs every store's structural audit. Empty string = pass.
  /// O(committed route length), so production call sites sample it.
  std::string CheckInvariants() const;

 private:
  // Bytes charged per live inter-strip open-list entry in the MC footprint:
  // one (f, tie-break, strip) record.
  static constexpr std::size_t kOpenEntryBytes = 24;

  // Entries per strip the rescue pass may hold labels for (DESIGN.md §2a);
  // the first pass holds one.
  static constexpr int kRescueEntriesPerStrip = 4;

  // A strip search label: the strip reached at entry position `entry_pos`
  // at time `arrival`.
  struct Label {
    TimeStep arrival = kInfiniteTime;
    std::int64_t entry_pos = -1;
    StripId strip = kInvalidStrip;
    std::int32_t pred = -1;                   // pool index of the pred label
    std::int64_t pred_exit_pos = -1;          // static search: exit in pred
    std::vector<geometry::Segment> pred_leg;  // dynamic search: pred leg
    bool settled = false;
  };

  /// Per-worker search workspace: everything a query mutates. The serial
  /// PlanRoute path owns one; every speculative QueryContext owns another,
  /// so concurrent queries never share scratch state.
  struct Search {
    Search(const core::WarehouseMatrix& matrix, std::size_t strip_count)
        : entries(strip_count * kRescueEntriesPerStrip),
          entry_count(strip_count, 0),
          entry_epoch(strip_count, -1),
          fallback_engine(matrix) {}

    // Labels of the running pass, pool[0, used). The pool keeps its labels
    // (and their legs' capacity) across passes and queries.
    std::vector<Label> pool;
    std::size_t used = 0;
    // Pool indices of strip s's labels: entries[s * K, s * K +
    // entry_count[s]) with K = kRescueEntriesPerStrip, valid while
    // entry_epoch[s] == epoch, so a pass touches only the strips it visits.
    std::vector<std::int32_t> entries;
    std::vector<std::uint8_t> entry_count;
    std::vector<std::int64_t> entry_epoch;
    std::int64_t epoch = 0;

    // Open list of pool indices (ascending f, FIFO among equal f); cleared
    // (capacity kept) at each pass, so steady-state queries do not
    // reallocate it.
    core::BucketQueue<std::int32_t> open;

    // Peak per-query search footprint (labels + fallback A* sets), the
    // runtime-space component of the paper's MC metric.
    std::size_t peak_search_bytes = 0;

    core::SpaceTimeAStar fallback_engine;

    // Whether this workspace may drive the planner's (shared) breakdown
    // stopwatches — true only for the serial workspace.
    bool allow_timing = false;

    // Starts a pass: no labels, empty open list.
    void BeginPass() {
      ++epoch;
      used = 0;
      open.Clear();
    }

    // Pool indices of `strip`'s labels in the running pass.
    std::span<std::int32_t> EntriesOf(StripId strip) {
      const std::size_t s = static_cast<std::size_t>(strip);
      if (entry_epoch[s] != epoch) {
        entry_epoch[s] = epoch;
        entry_count[s] = 0;
      }
      return {entries.data() + s * kRescueEntriesPerStrip, entry_count[s]};
    }

    // Adds a fresh label for `strip`, which must have a free entry slot.
    std::int32_t NewLabel(StripId strip) {
      EntriesOf(strip);  // re-arms the strip's slots on its first visit
      const std::size_t s = static_cast<std::size_t>(strip);
      const std::int32_t index = static_cast<std::int32_t>(used++);
      entries[s * kRescueEntriesPerStrip + entry_count[s]++] = index;
      if (used > pool.size()) pool.emplace_back();
      Label& label = pool[static_cast<std::size_t>(index)];
      label.arrival = kInfiniteTime;
      label.entry_pos = -1;
      label.strip = strip;
      label.pred = -1;
      label.pred_exit_pos = -1;
      label.pred_leg.clear();  // keeps capacity: no churn across queries
      label.settled = false;
      return index;
    }

    Label& operator[](std::int32_t index) {
      return pool[static_cast<std::size_t>(index)];
    }

    // Re-arms the epoch stamps and footprint tracker (planner Reset). The
    // engine holds a matrix reference, so the workspace is not assignable.
    void ResetScratch() {
      std::fill(entry_epoch.begin(), entry_epoch.end(), -1);
      epoch = 0;
      used = 0;
      open.Clear();
      peak_search_bytes = 0;
    }
  };

  // The label a relaxation into entry `entry` of strip `strip` competes
  // with: the strip's label at that entry, else a fresh one while the strip
  // holds fewer than `max_entries` labels, else its unsettled label of
  // latest arrival, which a winning relaxation overwrites. The relaxation
  // must arrive before `bound` to win; `open` is false when the label it
  // meets is settled. With `max_entries` = 1 this is Alg. 4's one label
  // per strip.
  struct Target {
    std::int32_t label = -1;  // -1: a fresh label
    TimeStep bound = kInfiniteTime;
    bool open = true;
    bool other_entry = false;  // the strip holds a label at another entry
  };
  static Target TargetOf(Search& search, StripId strip, std::int64_t entry,
                         int max_entries);

  // How a strip pass ended.
  enum class PassEnd { kFound, kExhausted, kSettledCap, kFinalLegGiveUp };
  struct PassResult {
    std::optional<SrpPath> path;
    PassEnd end = PassEnd::kExhausted;
    // A relaxation met its target strip's label at another entry, or a
    // final leg failed: a pass with more entries per strip may succeed.
    bool rescuable = false;
  };

  struct Context;  // QueryContext wrapper around a Search (in the .cc)

  /// A successful query. Only the grid route is kept: commits always
  /// re-derive the canonical strip decomposition via PathFromRoute (not
  /// the search's native legs, whose segment splits may differ), so that
  /// ReleaseRoute(route) removes exactly the segments CommitRoute(route)
  /// inserted.
  struct Planned {
    core::Route route;
  };

  SegmentStore* StoreOf(StripId id) {
    return stores_[static_cast<std::size_t>(id)].get();
  }
  const SegmentStore* StoreOf(StripId id) const {
    return stores_[static_cast<std::size_t>(id)].get();
  }

  // The full query phase: dispatch-delay handling, static-first /
  // inter-strip search, A* fallback. Const — mutates only `search` and
  // `stats`; never touches committed state.
  std::optional<Planned> PlanQuery(Search& search, core::PlannerStats& stats,
                                   TimeStep now, GridCoord origin,
                                   GridCoord destination) const;

  // Inter-strip search (Alg. 4) keeping up to `max_entries` labels per
  // strip, keyed by entry position. The first pass runs it with 1 (the
  // paper's rule), the rescue pass with kRescueEntriesPerStrip. Every
  // settled label spends one unit of `budget`.
  PassResult InterStripSearch(Search& search, TimeStep start,
                              GridCoord origin, GridCoord destination,
                              int max_entries, std::int64_t& budget) const;

  // Static-first fast path: probe-free strip-chain search + timing pass.
  std::optional<SrpPath> StaticFirstPlan(Search& search, TimeStep start,
                                         GridCoord origin,
                                         GridCoord destination) const;

  // Earliest departure tau >= depart0 such that stepping from position
  // `exit_pos` of strip u into position `entry_pos` of strip v over
  // (tau, tau+1) is conflict-free (entry occupancy, boundary swap, and
  // waiting at the exit cell until tau). nullopt when no tau within
  // max_cross_wait works.
  std::optional<TimeStep> CrossingTime(StripId u, std::int64_t exit_pos,
                                       StripId v, std::int64_t entry_pos,
                                       TimeStep depart0) const;

  // Space-time A* over the segment stores; used when InterStripSearch
  // fails (Sec. VI). Search only — the caller commits.
  std::optional<core::Route> FallbackPlan(Search& search,
                                          core::PlannerStats& stats,
                                          TimeStep start, GridCoord origin,
                                          GridCoord destination) const;

  // Inserts a path's segments and boundary crossings into the stores.
  // Callers must pass the *canonical* decomposition (PathFromRoute of the
  // committed route), so ReleasePath can later remove exactly what was
  // inserted. Thread-safe iff the caller holds the commit locks of the
  // path's shard footprint (CommitRouteSharded does); the serial paths
  // call it lock-free.
  void CommitPath(const SrpPath& path);

  // Sorted-unique shard ids of the path's strips — the footprint
  // CommitGuard expects, covering every store and crossing registry
  // CommitPath(path) would touch.
  void FootprintOfPath(const SrpPath& path,
                       std::vector<std::uint32_t>& out) const;

  // Folds the current live-segment total into peak_segments_. Only called
  // at serial points (serial commits, OnShardedFlush): mid-wave totals are
  // scheduling-dependent, and the peak is meant to be a deterministic
  // end-of-wave gauge.
  void SamplePeakSegments() {
    peak_segments_ = std::max(
        peak_segments_, static_cast<std::size_t>(shard_map_.TotalSegments()));
  }

  // Exact inverse of CommitPath: removes the path's segments and boundary
  // crossings. Segments already dropped by PruneBefore are skipped.
  void ReleasePath(const SrpPath& path);

  // Earliest t in [now, now + max_dispatch_delay] at which `cell` is
  // unoccupied, or nullopt.
  std::optional<TimeStep> EarliestFreeStart(GridCoord cell,
                                            TimeStep now) const;

  // Sampled CheckInvariants with a fatal CARP_CHECK on failure; called
  // after every lifecycle mutation (commit, release, prune).
  void MaybeAuditLifecycle();

  const core::WarehouseMatrix& matrix_;
  SrpPlannerOptions options_;
  core::SpaceTimeAStarOptions fallback_options_;  // options_.fallback,
                                                  // horizon resolved
  StripGraph graph_;

  // Ownership partition + per-shard commit locks (DESIGN.md §2h). Declared
  // before the stores/crossings they govern: ShardedCrossings holds
  // references to graph_ and shard_map_.
  ShardMap shard_map_;
  ShardLockSet shard_locks_;

  std::vector<std::unique_ptr<SegmentStore>> stores_;  // null for rack strips
  ShardedCrossings crossings_;

  mutable core::PlannerStats stats_view_;

  // Lifetime peak of the live-segment total (peak_segment_count()); the
  // total itself lives in shard_map_'s per-shard counters, cross-checked
  // against the stores in CheckInvariants.
  std::size_t peak_segments_ = 0;

  // A lifecycle audit came due during a concurrent commit wave; run it at
  // the next OnShardedFlush, when the stores and the route log agree
  // again (mid-wave the stores are ahead of the log, so the replay audit
  // would report a false mismatch).
  bool sharded_audit_due_ = false;

  // Serial-path search workspace (PlanRoute).
  Search serial_;

  // Largest PruneBefore argument so far: segments ending before it (and
  // crossings departing before it) are legitimately absent from the
  // stores, which is exactly what CheckInvariants must tolerate.
  TimeStep prune_cutoff_ = 0;
  AuditSampler lifecycle_audit_;

  // Planner-level peak of all workspaces' search footprints.
  std::size_t peak_search_bytes_ = 0;

  // Fig. 22a stopwatches. Mutable because the (const) query helpers drive
  // them on the serial path; speculative workspaces have allow_timing
  // false, so the watches are only ever touched single-threaded.
  mutable Stopwatch inter_watch_;
  mutable Stopwatch intra_watch_;
  mutable Stopwatch conversion_watch_;
};

}  // namespace carp::srp

#endif  // CARP_SRP_SRP_PLANNER_H_
