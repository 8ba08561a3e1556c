#ifndef CARP_SRP_SEGMENT_INDEX_H_
#define CARP_SRP_SEGMENT_INDEX_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "srp/segment_store.h"

namespace carp::srp {

namespace internal_store {

/// Exact aggregate over the live slots of one 64-slot block of a LineIndex.
/// The index is sorted by (line key, start time, ...), so key ranges also
/// drive block-level *termination*: a block whose live min_key exceeds the
/// probed key ends a forward bucket scan (later slots only grow), and one
/// whose live max_key falls below it ends a backward scan.
struct LineBlock {
  static constexpr std::int32_t kLo32 = std::numeric_limits<std::int32_t>::min();
  static constexpr std::int32_t kHi32 = std::numeric_limits<std::int32_t>::max();
  static constexpr std::int64_t kLo64 = std::numeric_limits<std::int64_t>::min();
  static constexpr std::int64_t kHi64 = std::numeric_limits<std::int64_t>::max();

  std::int64_t min_key = kHi64;
  std::int64_t max_key = kLo64;
  std::int32_t min_t0 = kHi32;
  std::int32_t max_t1 = kLo32;
  std::uint32_t live = 0;

  friend bool operator==(const LineBlock&, const LineBlock&) = default;
};

/// One slope class's line-keyed map (Sec. V-D's "map of ordered sets"),
/// realised as flat structure-of-arrays sequences sorted by
/// (line key, start time) with per-64-slot summaries: a bucket is an
/// equal-key run, lookups stay O(log n + m), and bucket scans skip whole
/// blocks whose live time window or key range cannot match the probe.
///
/// All entries share the owning class's slope, so a segment on the line
/// `key` is fully determined by its time span: pos = key + slope * t
/// (Eq. 4 inverted). The index therefore stores only (key, t0, t1) — 16
/// bytes per entry against the 24 of a key + packed-endpoints pair — and
/// reconstructs endpoint positions on demand.
///
/// Removal mirrors SortedSegments' lazy deletion: entries tombstone in
/// place (preserving the sorted layout the binary searches rely on) and
/// compact once dead entries dominate; every mutation recomputes the
/// affected block summaries over live slots only, so tombstones never
/// widen a summary.
class LineIndex {
 public:
  static constexpr std::size_t kBlockSize = kSegmentBlockSize;

  /// Slope shared by every entry (set once by the owning slope class).
  void set_slope(int slope) { slope_ = slope; }

  void Insert(std::int64_t key, const PackedSegment& segment);

  /// Tombstones one live (key, segment) entry; false if none exists.
  bool Remove(std::int64_t key, const PackedSegment& segment);

  /// Drops every entry (live or tombstoned) whose segment finishes before
  /// `t` in one rebuild pass. Capacity is intentionally kept — pruning is
  /// on an epoch cadence and the index refills (see ShrinkIfSlack).
  void PruneBefore(TimeStep t);

  /// Earliest same-line conflict against a candidate spanning [ct0, ct1]
  /// on the line `key`, or kInfiniteTime. Same-slope segments on one line
  /// conflict exactly when their time spans overlap, from the later start
  /// time; `cutoff` is the caller's reach bound (start times below it
  /// cannot overlap ct0). Scan work is tallied into `sc`.
  TimeStep EarliestSameSlope(std::int64_t key, TimeStep ct0, TimeStep ct1,
                             TimeStep cutoff, ScanCounters& sc) const;

  /// True when a live entry on line `key` covers time `t` (equivalently:
  /// its segment passes through the probed space-time point — a slot on
  /// the line at time t sits at exactly the probed position).
  /// `max_duration` bounds the backward scan (see SortedSegments'
  /// LowerBoundByReach).
  bool Covers(std::int64_t key, TimeStep t, std::int32_t max_duration,
              ScanCounters& sc) const;

  std::size_t slot_count() const { return key_.size(); }
  std::int64_t key(std::size_t i) const { return key_[i]; }

  /// Entry `i` with its endpoint positions reconstructed from the line
  /// equation pos = key + slope * t.
  PackedSegment Get(std::size_t i) const {
    const std::int64_t s = slope_;
    return PackedSegment{t0_[i],
                         static_cast<std::int32_t>(key_[i] + s * t0_[i]),
                         t1_[i],
                         static_cast<std::int32_t>(key_[i] + s * t1_[i])};
  }
  bool IsLive(std::size_t i) const { return dead_.empty() || dead_[i] == 0; }

  std::size_t size() const { return slot_count() - tombstones_; }
  std::size_t tombstones() const { return tombstones_; }
  std::int64_t compactions() const { return compactions_; }
  std::int64_t shrinks() const { return shrinks_; }

  /// Fully-dead equal-key runs erased so far by PruneBefore/compaction
  /// passes with no ScopedStatsSink installed. Before erasure such a bucket
  /// still occupies slots that bucket scans must walk past for nothing —
  /// equal-key runs fully tombstoned below the compaction threshold linger
  /// until the next prune.
  std::int64_t buckets_erased() const { return buckets_erased_; }

  void set_summary_pruning(bool enabled) { summary_pruning_ = enabled; }

  std::size_t RetainedBytes() const {
    return key_.capacity() * sizeof(std::int64_t) +
           (t0_.capacity() + t1_.capacity()) * sizeof(std::int32_t) +
           dead_.capacity() * sizeof(std::uint8_t) +
           blocks_.capacity() * sizeof(LineBlock);
  }

  /// Structural audit: sortedness, size agreement, tombstone bookkeeping,
  /// and every block summary equal to an exact recomputation.
  std::string CheckInvariants() const;

 private:
  /// Lexicographic (key, t0, t1) comparison of slot `i` against the probe
  /// entry. Within one slope class this induces the same total order as
  /// comparing full endpoint tuples: positions are determined by
  /// (key, t) through the line equation.
  int CompareSlot(std::size_t i, std::int64_t key,
                  const PackedSegment& s) const;

  /// First slot with (key, t0) >= (probe_key, t0_floor), ignoring the
  /// finer tiebreak fields (they only order within equal (key, t0) runs).
  std::size_t LowerBoundKeyTime(std::int64_t probe_key,
                                TimeStep t0_floor) const;

  /// First slot with (key, t0) > (probe_key, t0_ceil).
  std::size_t UpperBoundKeyTime(std::int64_t probe_key,
                                TimeStep t0_ceil) const;

  void RebuildBlock(std::size_t b);
  void RebuildBlocksFrom(std::size_t first);
  void CompactLines(bool allow_shrink);

  // Into this thread's ScopedStatsSink, else into buckets_erased_.
  void NoteBucketsErased(std::int64_t n) {
    if (core::PlannerStats* sink = ScopedStatsSink::current()) {
      sink->buckets_erased += n;
    } else {
      buckets_erased_ += n;
    }
  }

  std::vector<std::int64_t> key_;
  std::vector<std::int32_t> t0_;
  std::vector<std::int32_t> t1_;
  std::vector<std::uint8_t> dead_;  // empty = no dead entries
  std::vector<LineBlock> blocks_;
  /// Counts the equal-key runs among the current slots with no surviving
  /// entry under `survives` (rebuild passes call it with their own keep
  /// predicate just before dropping the dead slots).
  template <typename SurvivesFn>
  std::int64_t CountDyingBuckets(const SurvivesFn& survives) const {
    std::int64_t dying = 0;
    std::size_t i = 0;
    while (i < slot_count()) {
      const std::int64_t run_key = key_[i];
      bool any_survivor = false;
      for (; i < slot_count() && key_[i] == run_key; ++i) {
        if (survives(i)) any_survivor = true;
      }
      if (!any_survivor) ++dying;
    }
    return dying;
  }

  std::size_t tombstones_ = 0;
  std::int64_t compactions_ = 0;
  std::int64_t shrinks_ = 0;
  std::int64_t buckets_erased_ = 0;
  bool summary_pruning_ = true;
  int slope_ = 0;
};

}  // namespace internal_store

/// The slope-based segment index of Sec. V-D / Alg. 3.
///
/// Segments are partitioned by slope. Within one slope class, two parallel
/// segments can conflict only when they lie on the same space-time line, so
/// each class additionally keys its segments by the integer line identifier
/// of Eq. (4)'s rotation (see geometry::IndexKey). A collision query then
/// judges:
///   * same-slope candidates: only the (usually O(1)-sized, thanks to the
///     ever-increasing rotated coordinate) bucket with the candidate's key;
///   * other slopes: the time-overlap range of the two remaining ordered
///     sequences, through the same block-summarized two-level kernel as the
///     naive store (DESIGN.md §2f) — the summary pass prunes most of the
///     linear term.
/// This is the paper's O(log m + m + log(n-n') + (n-n')) judgement.
class IndexedSegmentStore final : public SegmentStore {
 public:
  /// `summary_pruning` false degrades every scan to the flat
  /// predicate-per-candidate form (paired benches / differential fuzzing).
  explicit IndexedSegmentStore(bool summary_pruning = true);

  void Insert(const geometry::Segment& segment) override;
  bool Remove(const geometry::Segment& segment) override;
  std::size_t PruneBefore(TimeStep t) override;
  TimeStep EarliestCollisionTime(
      const geometry::Segment& candidate) const override;

  /// Exact point occupancy in O(log n): a segment passes through (t, pos)
  /// iff it lies on one of exactly three space-time lines — slope 0 with
  /// key pos, slope +1 with key pos - t, slope -1 with key pos + t — and
  /// covers t. Three line-bucket binary searches replace the linear
  /// cross-slope scans of the generic query.
  bool OccupiedAt(std::int64_t pos, TimeStep t) const override;

  std::size_t size() const override;
  std::size_t RetainedBytes() const override;

  /// Size of the largest same-line bucket (diagnostic for the paper's
  /// "almost one-to-one mapping" remark).
  std::size_t MaxBucketSize() const;

  void ForEachLive(const std::function<void(const geometry::Segment&)>& fn)
      const override;

  /// Full structural audit (DESIGN.md §2d): per slope class, sortedness,
  /// tombstone bookkeeping, and block-summary exactness of both sequences,
  /// line keys matching the Eq. (4) rotation, slopes matching the class,
  /// and — the paper's drop-in equivalence claim in miniature — the live
  /// multiset of `by_line` agreeing exactly with the live multiset of
  /// `all`.
  std::string CheckInvariants() const override;

 protected:
  void AddStructureStats(SegmentStoreStats& s) const override;

 private:
  struct SlopeClass {
    // Every segment of this slope, ordered by start time (cross-slope
    // scans).
    internal_store::SortedSegments all;
    // The same segments ordered by (line key, start time): the slope's
    // line-keyed map (same-slope lookups). Tombstoned independently of
    // `all` (positions differ), but the two live multisets are always
    // identical.
    internal_store::LineIndex by_line;
  };

  static int SlopeSlot(int slope) { return slope + 1; }  // -1,0,1 -> 0,1,2

  SlopeClass classes_[3];
};

}  // namespace carp::srp

#endif  // CARP_SRP_SEGMENT_INDEX_H_
