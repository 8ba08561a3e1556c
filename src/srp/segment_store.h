#ifndef CARP_SRP_SEGMENT_STORE_H_
#define CARP_SRP_SEGMENT_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/audit.h"
#include "common/logging.h"
#include "common/types.h"
#include "core/planner.h"
#include "geometry/intersection.h"
#include "geometry/segment.h"

namespace carp::srp {

/// Statistics of collision-detection work and lifecycle churn, for the
/// Fig. 22 ablation and the longrun bench.
struct SegmentStoreStats {
  std::int64_t queries = 0;
  std::int64_t candidates_examined = 0;  // segments judged pairwise
  std::int64_t blocks_scanned = 0;   // summary blocks whose slots were read
  std::int64_t blocks_skipped = 0;   // summary blocks proven non-intersecting
  std::int64_t candidates_pruned_by_summary = 0;  // excluded w/o a predicate
  std::int64_t erases = 0;       // successful Remove calls (route release)
  std::int64_t pruned = 0;       // segments dropped by PruneBefore
  std::int64_t compactions = 0;  // threshold-triggered compaction passes
  std::int64_t tombstones = 0;   // dead slots currently awaiting compaction
  std::int64_t shrinks = 0;      // capacity-returning passes (ShrinkIfSlack)
  // The slope index's second sequence (per-slope by-line index), reported
  // separately so the longrun/lifecycle benches can observe its churn; the
  // aggregate counters above include these.
  std::int64_t by_line_tombstones = 0;
  std::int64_t by_line_compactions = 0;
  std::int64_t by_line_shrinks = 0;
  // Fully-dead equal-key runs (line-index "buckets") erased by prune or
  // compaction passes. Such runs hold no live entry yet would still be
  // walked by bucket scans until erased; the counter makes the cleanup
  // observable.
  std::int64_t buckets_erased = 0;
};

namespace internal_store {

/// Segments per summary block of the blocked SoA layout (power of two; one
/// block's coordinates span 4 x 256 bytes = four cache lines per array).
inline constexpr std::size_t kSegmentBlockSize = 64;

/// Slots per quarter block: the slot scans skip a quarter whose live slots
/// all finish before the probe's time window.
inline constexpr std::size_t kQuarterSize = kSegmentBlockSize / 4;

/// The one capacity-return policy shared by every flat sequence in the
/// stores: give memory back only when the live size has fallen well below
/// capacity (under half, with a small floor that spares tiny vectors).
/// Returns true when a shrink actually ran, so callers can count passes.
///
/// Call sites choose *when* this applies, not *how*: threshold-triggered
/// compactions shrink (the store has durably contracted), prune-path
/// compactions do not (the store refills to a similar working set before
/// the next epoch sweep, so shrinking there just buys a realloc cycle).
template <typename T>
inline bool ShrinkIfSlack(std::vector<T>& v) {
  if (v.capacity() <= 2 * std::max<std::size_t>(v.size(), 16)) return false;
  v.shrink_to_fit();
  return true;
}

/// The four endpoint coordinates of a stored segment. Positions are grid
/// numbers within one strip (< 2^15) and times fit a day horizon with wide
/// margin, so 32-bit components are exact.
struct PackedSegment {
  std::int32_t t0 = 0;
  std::int32_t p0 = 0;
  std::int32_t t1 = 0;
  std::int32_t p1 = 0;

  static PackedSegment Pack(const geometry::Segment& s) {
    return PackedSegment{static_cast<std::int32_t>(s.start().t),
                         static_cast<std::int32_t>(s.start().pos),
                         static_cast<std::int32_t>(s.finish().t),
                         static_cast<std::int32_t>(s.finish().pos)};
  }

  geometry::Segment Unpack() const {
    return geometry::Segment({t0, p0}, {t1, p1});
  }

  /// True when [t0, t1] shares an integer timestep with [a, b].
  bool TimeOverlaps(TimeStep a, TimeStep b) const { return t0 <= b && a <= t1; }

  friend bool operator==(const PackedSegment&,
                         const PackedSegment&) = default;

  /// Total order by start time (the paper's ordered-set key), then the
  /// remaining fields for stability.
  friend auto operator<=>(const PackedSegment&,
                          const PackedSegment&) = default;
};

/// Earliest conflict time between a stored segment and a candidate given
/// as raw endpoint coordinates, or kInfiniteTime. Identical semantics to
/// geometry::FindCollision (tests assert the equivalence) without
/// constructing checked Segment objects — this sits in the innermost
/// collision-judgement loops.
inline TimeStep PackedCollisionTime(const PackedSegment& s, std::int64_t ct0,
                                    std::int64_t cp0, std::int64_t ct1,
                                    std::int64_t cp1) {
  const std::int64_t lo = s.t0 > ct0 ? s.t0 : ct0;
  const std::int64_t hi = s.t1 < ct1 ? s.t1 : ct1;
  if (lo > hi) return kInfiniteTime;

  const std::int64_t ks =
      s.p1 > s.p0 ? 1 : (s.p1 < s.p0 ? -1 : 0);
  const std::int64_t kc = cp1 > cp0 ? 1 : (cp1 < cp0 ? -1 : 0);
  const std::int64_t d_lo =
      (s.p0 + ks * (lo - s.t0)) - (cp0 + kc * (lo - ct0));
  const std::int64_t m = ks - kc;

  if (m == 0) return d_lo == 0 ? lo : kInfiniteTime;
  if (d_lo % m == 0) {
    const std::int64_t t = lo - d_lo / m;
    return (t >= lo && t <= hi) ? t : kInfiniteTime;
  }
  // Opposite slopes with odd separation: half-integer crossing (swap).
  const std::int64_t two_tau = 2 * lo - (m > 0 ? d_lo : -d_lo);
  std::int64_t t_star = two_tau / 2;
  if (two_tau < 0 && two_tau % 2 != 0) --t_star;
  return (t_star >= lo && t_star + 1 <= hi) ? t_star : kInfiniteTime;
}

/// Per-query scan work, tallied locally by the collision scans and folded
/// once per query (NoteQuery) into the thread's ScopedStatsSink, or into the
/// store's own SegmentStoreStats atomics when none is installed.
struct ScanCounters {
  std::int64_t examined = 0;           // packed-predicate evaluations
  std::int64_t blocks_scanned = 0;     // blocks whose slots were inspected
  std::int64_t blocks_skipped = 0;     // blocks pruned by their summary
  std::int64_t pruned_by_summary = 0;  // candidates excluded w/o a predicate
};

/// Exact per-block aggregate over the *live* slots of one 64-slot block of
/// the SoA layout. A whole block is skipped when the candidate provably
/// cannot intersect any live slot:
///   * time window [min_t0, max_t1] disjoint from the candidate's span;
///   * position extent [min_pos, max_pos] disjoint from the candidate's
///     (a collision point — integer vertex or half-integer swap crossing —
///     lies inside both segments' continuous position spans);
///   * per-slope rotated line keys (Eq. 4: key = pos - slope * t) disjoint
///     from the candidate's key range under that slope's rotation (a stored
///     segment lies on one space-time line; a conflict point is on the
///     candidate, so the stored key must fall inside the candidate's
///     interval of keys for that slope).
/// Within a block that is scanned, a quarter is skipped when its latest
/// live finish time precedes the candidate's start: most scanned slots fail
/// on time alone, and a block often survives through one long segment.
/// Tombstoned slots widen nothing: every mutation recomputes the affected
/// blocks over live slots only, and compaction rebuilds all summaries.
struct BlockSummary {
  static constexpr std::int32_t kLo = std::numeric_limits<std::int32_t>::min();
  static constexpr std::int32_t kHi = std::numeric_limits<std::int32_t>::max();

  std::int32_t min_t0 = kHi;
  std::int32_t max_t1 = kLo;
  std::int32_t min_pos = kHi;
  std::int32_t max_pos = kLo;
  // Indexed by slope + 1 (-1, 0, +1 -> 0, 1, 2); empty slope class keeps
  // the inverted sentinel range, which every interval test rejects.
  std::int32_t min_key[3] = {kHi, kHi, kHi};
  std::int32_t max_key[3] = {kLo, kLo, kLo};
  std::int32_t quarter_max_t1[4] = {kLo, kLo, kLo, kLo};
  std::uint32_t live = 0;

  friend bool operator==(const BlockSummary&, const BlockSummary&) = default;
};

/// Sorted-by-start-time segment sequence in a structure-of-arrays layout
/// with fixed-size block summaries, and a time-overlap scan bound (the
/// binary search of Sec. V-B).
///
/// Collision judgement is a two-level kernel: a summary pass over
/// BlockSummary entries skips whole blocks that provably cannot intersect
/// the candidate, then a tight scan over the coordinate arrays of the
/// surviving blocks calls the packed collision predicate only on slots that
/// pass the same time/position/line-key interval tests individually.
/// set_summary_pruning(false) degrades the kernel to the flat scan the
/// store shipped with (predicate on every live time-overlapping slot) —
/// summaries are still maintained and audited — so paired benches and the
/// differential fuzzer can compare the two answer-for-answer.
///
/// Removal is tombstone-based: Remove marks a slot dead in O(log n + d)
/// (d = duplicates on the slot's key) and a compaction pass erases all
/// dead slots at once whenever they reach half the sequence, keeping
/// removal amortized O(log n) and scans within a constant factor of the
/// live size. The ordering of the arrays (and therefore every binary-search
/// bound) is unaffected because tombstones keep their position until
/// compaction; summaries are recomputed exactly at every mutation.
class SortedSegments {
 public:
  static constexpr std::size_t kBlockSize = kSegmentBlockSize;

  void Insert(const PackedSegment& segment);

  /// Tombstones one live copy of `segment`; false if no live copy exists.
  bool Remove(const PackedSegment& segment);

  /// Drops (eagerly, with a single compaction pass) every segment whose
  /// finish time is < t; returns how many live segments were dropped.
  std::size_t PruneBefore(TimeStep t);

  /// Earliest collision time of the candidate (given as raw endpoint
  /// coordinates) against the stored segments, or kInfiniteTime. With
  /// `use_reach_bound` the scan starts at LowerBoundByReach(ct0) (the
  /// indexed store's two-sided window); without it the whole prefix below
  /// UpperBoundByStart(ct1) is visited (the faithful naive store). Scan
  /// work is tallied into `sc`.
  TimeStep EarliestCollisionInRange(std::int64_t ct0, std::int64_t cp0,
                                    std::int64_t ct1, std::int64_t cp1,
                                    bool use_reach_bound,
                                    ScanCounters& sc) const;

  /// True when some live segment passes through (t, pos). Binary-searches
  /// the probe window ([LowerBoundByReach(t), UpperBoundByStart(t))) and
  /// block-skips within it; exits on the first covering slot.
  bool OccupiedAt(std::int64_t pos, TimeStep t, ScanCounters& sc) const;

  /// Number of slots (live + tombstoned) in the arrays.
  std::size_t slot_count() const { return t0_.size(); }

  /// Coordinates of slot `i`, reassembled from the four arrays.
  PackedSegment Get(std::size_t i) const {
    return PackedSegment{t0_[i], p0_[i], t1_[i], p1_[i]};
  }

  /// True when slot `i` has not been tombstoned.
  bool IsLive(std::size_t i) const { return dead_.empty() || dead_[i] == 0; }

  /// Visits every live slot in start-time order.
  void ForEachLive(
      const std::function<void(const geometry::Segment&)>& fn) const {
    for (std::size_t i = 0; i < slot_count(); ++i) {
      if (IsLive(i)) fn(Get(i).Unpack());
    }
  }

  /// Index one past the last segment whose start time is <= t (segments
  /// after it cannot overlap a candidate finishing at t).
  std::size_t UpperBoundByStart(TimeStep t) const;

  /// Index of the first segment that could still overlap a candidate
  /// starting at `t`: segments before it started more than the longest
  /// stored duration ago, so their finish times lie strictly before `t`.
  /// Together with UpperBoundByStart this is the two-sided binary search
  /// of Sec. V-B ("segments whose start and finish time overlap").
  std::size_t LowerBoundByReach(TimeStep t) const;

  /// Number of live segments.
  std::size_t size() const { return slot_count() - tombstones_; }
  bool empty() const { return size() == 0; }

  std::size_t tombstones() const { return tombstones_; }
  std::int64_t compactions() const { return compactions_; }
  std::int64_t shrinks() const { return shrinks_; }

  /// Toggles the summary pass and the per-slot interval prefilter of the
  /// collision kernel. Summaries are maintained (and audited) either way,
  /// so flipping this changes scan work — never answers.
  void set_summary_pruning(bool enabled) { summary_pruning_ = enabled; }
  bool summary_pruning() const { return summary_pruning_; }

  /// Structural audit: empty string when the arrays are sorted and equally
  /// sized, tombstone bookkeeping matches the flag array, max_duration_
  /// bounds every live duration, and every block summary equals an exact
  /// recomputation over its live slots; else a description of the first
  /// violation.
  std::string CheckInvariants() const;

  /// Deliberately narrows one nonempty block summary (fault-injection
  /// calibration for the differential fuzzer; see check/faulty_store.h).
  /// Returns false when the store has no live slots to corrupt.
  bool CorruptOneSummaryForTest();

  /// Longest duration among stored segments (upper bound; recomputed
  /// exactly over live segments at each compaction).
  std::int32_t max_duration() const { return max_duration_; }
  std::size_t RetainedBytes() const {
    return (t0_.capacity() + p0_.capacity() + t1_.capacity() +
            p1_.capacity()) *
               sizeof(std::int32_t) +
           dead_.capacity() * sizeof(std::uint8_t) +
           blocks_.capacity() * sizeof(BlockSummary);
  }

 private:
  /// Lexicographic (t0, p0, t1, p1) comparison of slot `i` against `s`.
  int CompareSlot(std::size_t i, const PackedSegment& s) const {
    if (t0_[i] != s.t0) return t0_[i] < s.t0 ? -1 : 1;
    if (p0_[i] != s.p0) return p0_[i] < s.p0 ? -1 : 1;
    if (t1_[i] != s.t1) return t1_[i] < s.t1 ? -1 : 1;
    if (p1_[i] != s.p1) return p1_[i] < s.p1 ? -1 : 1;
    return 0;
  }

  std::size_t UpperBoundSlot(const PackedSegment& s) const;
  std::size_t LowerBoundSlot(const PackedSegment& s) const;

  /// The exact summary of block `b` over its live slots.
  BlockSummary Summarize(std::size_t b) const;

  /// Recomputes the summary of block `b`.
  void RebuildBlock(std::size_t b) { blocks_[b] = Summarize(b); }

  /// Resizes blocks_ to match slot_count() and recomputes summaries for
  /// every block at index >= `first` (an ordered insert shifts the
  /// contents of every later block by one slot).
  void RebuildBlocksFrom(std::size_t first);

  /// Runs a compaction when tombstones dominate: erases dead slots,
  /// recomputes max_duration_ over survivors, and (threshold path only)
  /// returns capacity when the store has shrunk well below it.
  void CompactIfNeeded();
  void Compact(bool allow_shrink);

  // Structure-of-arrays coordinates, all sorted by the (t0, p0, t1, p1)
  // tuple order; one block summary per kBlockSize slots.
  std::vector<std::int32_t> t0_;
  std::vector<std::int32_t> p0_;
  std::vector<std::int32_t> t1_;
  std::vector<std::int32_t> p1_;
  // Tombstone flags, parallel to the arrays; empty means "no slot ever
  // died" (the append-only fast path allocates no flag bytes).
  std::vector<std::uint8_t> dead_;
  std::vector<BlockSummary> blocks_;
  std::size_t tombstones_ = 0;
  std::int64_t compactions_ = 0;
  std::int64_t shrinks_ = 0;
  bool summary_pruning_ = true;
  // Longest live duration (exact after each compaction, otherwise a safe
  // monotone upper bound for LowerBoundByReach).
  std::int32_t max_duration_ = 0;
};

}  // namespace internal_store

/// For the guard's lifetime, the stores count the work done on this thread
/// (probe scans, erased line buckets) into `sink` with plain adds. A planner
/// installs the stats of the query or lifecycle call it runs, so each
/// counter has one writer (DESIGN.md §2b). Guards nest; a store used with
/// none installed counts into its own counters (SegmentStore::stats()).
class ScopedStatsSink {
 public:
  explicit ScopedStatsSink(core::PlannerStats& sink) : previous_(current_) {
    current_ = &sink;
  }
  ~ScopedStatsSink() { current_ = previous_; }
  ScopedStatsSink(const ScopedStatsSink&) = delete;
  ScopedStatsSink& operator=(const ScopedStatsSink&) = delete;

  /// This thread's innermost sink, or null.
  static core::PlannerStats* current() { return current_; }

 private:
  static inline thread_local core::PlannerStats* current_ = nullptr;
  core::PlannerStats* previous_;
};

/// Per-strip container of the space-time segments of committed routes.
///
/// Both implementations answer the same question: does a candidate segment
/// collide with any stored segment, and if so, when earliest? (Alg. 2
/// line 9 / Alg. 3 "Collision Judgement".)
///
/// Storage is the paper's "only a few segment end points" representation
/// (Sec. VIII-B): each stored segment costs exactly its four endpoint
/// coordinates, packed into 16 bytes, held in flat sorted structure-of-
/// arrays sequences whose ordering and binary-search behaviour match the
/// paper's ordered sets, with per-64-slot block summaries that let the
/// collision kernel skip provably non-intersecting blocks (DESIGN.md §2f).
///
/// ## Route lifecycle
///
/// Stores are no longer append-only: Remove retires one segment of a
/// released route (duplicates are reference-like — removing one copy keeps
/// the other committed), and PruneBefore drops every segment that ends
/// strictly before a cutoff. Both use tombstone-based lazy deletion with
/// threshold-triggered compaction, so removal stays amortized O(log n)
/// while the flat sorted layout (and its binary searches) is preserved.
class SegmentStore {
 public:
  virtual ~SegmentStore() = default;

  /// Commits a segment.
  virtual void Insert(const geometry::Segment& segment) = 0;

  /// Removes one copy of a previously inserted segment (exact match);
  /// returns false if absent. Used by route release and speculative
  /// rollback.
  virtual bool Remove(const geometry::Segment& segment) = 0;

  /// Drops every stored segment whose finish time lies strictly before
  /// `t`; returns how many were dropped. Callers guarantee that no future
  /// query probes times < t.
  virtual std::size_t PruneBefore(TimeStep t) = 0;

  /// Earliest collision time of `candidate` against all stored segments,
  /// or kInfiniteTime when it conflicts with none.
  virtual TimeStep EarliestCollisionTime(
      const geometry::Segment& candidate) const = 0;

  /// Number of live (non-tombstoned) stored segments.
  virtual std::size_t size() const = 0;

  /// Bytes retained (MC accounting).
  virtual std::size_t RetainedBytes() const = 0;

  /// True when some stored segment passes through (t, pos). The default is
  /// a point-probe collision query; implementations may override with a
  /// cheaper exact lookup. Used by boundary-crossing checks and SRP's A*
  /// fallback oracle.
  virtual bool OccupiedAt(std::int64_t pos, TimeStep t) const {
    geometry::Segment probe({t, pos}, {t, pos});
    return EarliestCollisionTime(probe) != kInfiniteTime;
  }

  /// Visits every live (non-tombstoned) stored segment, in unspecified
  /// order. Audit/differential machinery only — never on a planning path.
  virtual void ForEachLive(
      const std::function<void(const geometry::Segment&)>& fn) const = 0;

  /// Structural invariant audit: returns an empty string when every
  /// internal invariant holds, else a description of the first violation.
  /// The mutating operations sample this through MaybeAudit(); the
  /// differential fuzzer calls it after every operation (DESIGN.md §2d).
  virtual std::string CheckInvariants() const { return {}; }

  /// Snapshot of the collision-work and lifecycle counters. The query
  /// counters cover only probes made with no ScopedStatsSink installed (a
  /// planner's queries tally into the planner instead); they are relaxed
  /// atomics because such probes may still run concurrently. The lifecycle
  /// counters are plain — mutations are always single-threaded
  /// (commit/release/prune happen between query phases).
  SegmentStoreStats stats() const {
    SegmentStoreStats s;
    s.queries = query_count_.load(std::memory_order_relaxed);
    s.candidates_examined = candidate_count_.load(std::memory_order_relaxed);
    s.blocks_scanned = blocks_scanned_.load(std::memory_order_relaxed);
    s.blocks_skipped = blocks_skipped_.load(std::memory_order_relaxed);
    s.candidates_pruned_by_summary =
        summary_pruned_.load(std::memory_order_relaxed);
    s.erases = erase_count_;
    s.pruned = prune_count_;
    AddStructureStats(s);
    return s;
  }
  void ResetStats() {
    query_count_.store(0, std::memory_order_relaxed);
    candidate_count_.store(0, std::memory_order_relaxed);
    blocks_scanned_.store(0, std::memory_order_relaxed);
    blocks_skipped_.store(0, std::memory_order_relaxed);
    summary_pruned_.store(0, std::memory_order_relaxed);
    erase_count_ = 0;
    prune_count_ = 0;
  }

 protected:
  /// Folds one query's locally counted scan work into this thread's sink,
  /// or into the store's shared counters when none is installed.
  void NoteQuery(const internal_store::ScanCounters& sc) const {
    if (core::PlannerStats* sink = ScopedStatsSink::current()) {
      sink->candidates_examined += sc.examined;
      sink->blocks_scanned += sc.blocks_scanned;
      sink->blocks_skipped += sc.blocks_skipped;
      sink->candidates_pruned_by_summary += sc.pruned_by_summary;
      return;
    }
    query_count_.fetch_add(1, std::memory_order_relaxed);
    if (sc.examined != 0) {
      candidate_count_.fetch_add(sc.examined, std::memory_order_relaxed);
    }
    if (sc.blocks_scanned != 0) {
      blocks_scanned_.fetch_add(sc.blocks_scanned, std::memory_order_relaxed);
    }
    if (sc.blocks_skipped != 0) {
      blocks_skipped_.fetch_add(sc.blocks_skipped, std::memory_order_relaxed);
    }
    if (sc.pruned_by_summary != 0) {
      summary_pruned_.fetch_add(sc.pruned_by_summary,
                                std::memory_order_relaxed);
    }
  }

  void NoteErase() { ++erase_count_; }
  void NotePruned(std::size_t n) {
    prune_count_ += static_cast<std::int64_t>(n);
  }

  /// Sampled invariant audit; implementations call this at the end of every
  /// mutating operation. Compiled in always, cheap by sampling (see
  /// common/audit.h); a violation is a CARP_CHECK failure.
  void MaybeAudit() {
    if (!audit_.Tick()) return;
    const std::string err = CheckInvariants();
    CARP_CHECK(err.empty()) << err;
  }

  /// Implementations report their structural lifecycle state (current
  /// tombstones, compactions run) into a stats snapshot.
  virtual void AddStructureStats(SegmentStoreStats& s) const { (void)s; }

 private:
  mutable std::atomic<std::int64_t> query_count_{0};
  mutable std::atomic<std::int64_t> candidate_count_{0};
  mutable std::atomic<std::int64_t> blocks_scanned_{0};
  mutable std::atomic<std::int64_t> blocks_skipped_{0};
  mutable std::atomic<std::int64_t> summary_pruned_{0};
  std::int64_t erase_count_ = 0;
  std::int64_t prune_count_ = 0;
  AuditSampler audit_;
};

/// The naive store of Sec. V-B: one ordered sequence keyed by segment start
/// time. Collision judgement scans every stored segment whose time span can
/// overlap the candidate — O(2 log n + n) — though the block summaries let
/// the kernel skip most of that prefix wholesale. "Naive" names the paper's
/// layout, not its standing here: with summaries on it makes fewer pairwise
/// judgements than the slope index on the day, so every default SrpPlanner
/// runs this store (DESIGN.md §2f).
class NaiveSegmentStore final : public SegmentStore {
 public:
  /// `summary_pruning` false degrades the collision kernel to the flat
  /// predicate-per-candidate scan (paired benches / differential fuzzing).
  explicit NaiveSegmentStore(bool summary_pruning = true) {
    segments_.set_summary_pruning(summary_pruning);
  }

  void Insert(const geometry::Segment& segment) override;
  bool Remove(const geometry::Segment& segment) override;
  std::size_t PruneBefore(TimeStep t) override;
  TimeStep EarliestCollisionTime(
      const geometry::Segment& candidate) const override;

  /// Point occupancy via the two-sided binary search: only segments whose
  /// start lies within the longest stored duration before `t` can cover
  /// `t`, so the probe scans that window (block-skipped) instead of the
  /// whole prefix the generic collision-query default would visit. This is
  /// on the boundary-crossing hot path whenever the slope index is off.
  bool OccupiedAt(std::int64_t pos, TimeStep t) const override;

  std::size_t size() const override { return segments_.size(); }
  std::size_t RetainedBytes() const override {
    return segments_.RetainedBytes();
  }
  void ForEachLive(const std::function<void(const geometry::Segment&)>& fn)
      const override;
  std::string CheckInvariants() const override {
    return segments_.CheckInvariants();
  }

  /// Fault-injection hook (check/faulty_store.h): stales one block summary.
  bool CorruptSummaryForTest() {
    return segments_.CorruptOneSummaryForTest();
  }

 protected:
  void AddStructureStats(SegmentStoreStats& s) const override {
    s.tombstones += static_cast<std::int64_t>(segments_.tombstones());
    s.compactions += segments_.compactions();
    s.shrinks += segments_.shrinks();
  }

 private:
  internal_store::SortedSegments segments_;
};

}  // namespace carp::srp

#endif  // CARP_SRP_SEGMENT_STORE_H_
