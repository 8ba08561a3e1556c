#include "srp/segment_store.h"

#include <algorithm>
#include <sstream>

namespace carp::srp {

namespace internal_store {

namespace {

/// Slope of a stored slot from its endpoint positions (-1, 0, +1).
inline int SlotSlope(std::int32_t p0, std::int32_t p1) {
  return p1 > p0 ? 1 : (p1 < p0 ? -1 : 0);
}

/// True when the block's per-slope key ranges are all disjoint from the
/// candidate's key envelope (indexed by slope + 1). An empty slope class
/// keeps the inverted sentinel range, which is disjoint from everything.
inline bool KeysDisjoint(const BlockSummary& bs, const std::int64_t klo[3],
                         const std::int64_t khi[3]) {
  for (int s = 0; s < 3; ++s) {
    if (bs.min_key[s] <= khi[s] && bs.max_key[s] >= klo[s]) return false;
  }
  return true;
}

}  // namespace

std::size_t SortedSegments::LowerBoundSlot(const PackedSegment& s) const {
  std::size_t lo = 0;
  std::size_t hi = slot_count();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (CompareSlot(mid, s) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::size_t SortedSegments::UpperBoundSlot(const PackedSegment& s) const {
  std::size_t lo = 0;
  std::size_t hi = slot_count();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (CompareSlot(mid, s) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

BlockSummary SortedSegments::Summarize(std::size_t b) const {
  BlockSummary bs;
  const std::size_t begin = b * kBlockSize;
  const std::size_t end = std::min(begin + kBlockSize, slot_count());
  for (std::size_t i = begin; i < end; ++i) {
    if (!IsLive(i)) continue;
    bs.min_t0 = std::min(bs.min_t0, t0_[i]);
    bs.max_t1 = std::max(bs.max_t1, t1_[i]);
    std::int32_t& quarter = bs.quarter_max_t1[(i - begin) / kQuarterSize];
    quarter = std::max(quarter, t1_[i]);
    bs.min_pos = std::min(bs.min_pos, std::min(p0_[i], p1_[i]));
    bs.max_pos = std::max(bs.max_pos, std::max(p0_[i], p1_[i]));
    const int s = SlotSlope(p0_[i], p1_[i]);
    const std::int32_t key = p0_[i] - static_cast<std::int32_t>(s) * t0_[i];
    bs.min_key[s + 1] = std::min(bs.min_key[s + 1], key);
    bs.max_key[s + 1] = std::max(bs.max_key[s + 1], key);
    ++bs.live;
  }
  return bs;
}

void SortedSegments::RebuildBlocksFrom(std::size_t first) {
  const std::size_t n_blocks = (slot_count() + kBlockSize - 1) / kBlockSize;
  blocks_.resize(n_blocks);
  for (std::size_t b = first; b < n_blocks; ++b) RebuildBlock(b);
}

void SortedSegments::Insert(const PackedSegment& segment) {
  const std::size_t idx = UpperBoundSlot(segment);
  const auto at = static_cast<std::ptrdiff_t>(idx);
  t0_.insert(t0_.begin() + at, segment.t0);
  p0_.insert(p0_.begin() + at, segment.p0);
  t1_.insert(t1_.begin() + at, segment.t1);
  p1_.insert(p1_.begin() + at, segment.p1);
  if (!dead_.empty()) dead_.insert(dead_.begin() + at, 0);
  max_duration_ = std::max(max_duration_, segment.t1 - segment.t0);
  // Every block at and after the insertion point shifted by one slot; the
  // suffix rebuild is O(n) — the same asymptotics as the vector insert's
  // memmove above, and cheap in the common near-append case.
  RebuildBlocksFrom(idx / kBlockSize);
}

bool SortedSegments::Remove(const PackedSegment& segment) {
  // Identical segments occupy adjacent slots (total order); the first
  // *live* copy in the equal range is the one retired — duplicates act as
  // a reference count, so releasing one route never frees another's copy.
  for (std::size_t i = LowerBoundSlot(segment);
       i < slot_count() && CompareSlot(i, segment) == 0; ++i) {
    if (!IsLive(i)) continue;
    if (dead_.empty()) dead_.assign(slot_count(), 0);
    dead_[i] = 1;
    ++tombstones_;
    RebuildBlock(i / kBlockSize);
    CompactIfNeeded();
    return true;
  }
  return false;
}

std::size_t SortedSegments::PruneBefore(TimeStep t) {
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < slot_count(); ++i) {
    if (t1_[i] < t && IsLive(i)) {
      if (dead_.empty()) dead_.assign(slot_count(), 0);
      dead_[i] = 1;
      ++tombstones_;
      ++dropped;
    }
  }
  // Pruning sweeps are on an epoch cadence, so compact eagerly: the dead
  // prefix is typically the bulk of the store. Capacity is kept — the
  // store refills to a similar working set before the next sweep, so
  // shrinking here would only buy a realloc cycle per epoch. Compact
  // rebuilds every block summary, so no per-block rebuild is needed here.
  if (tombstones_ > 0) Compact(/*allow_shrink=*/false);
  return dropped;
}

void SortedSegments::CompactIfNeeded() {
  // Amortization: a compaction costs O(n) and only runs once half the
  // slots are dead, so each removal carries O(1) amortized compaction
  // work; the 64-slot floor keeps tiny stores from compacting constantly.
  if (tombstones_ >= 64 && 2 * tombstones_ >= slot_count()) {
    Compact(/*allow_shrink=*/true);
  }
}

void SortedSegments::Compact(bool allow_shrink) {
  std::size_t w = 0;
  std::int32_t max_dur = 0;
  for (std::size_t i = 0; i < slot_count(); ++i) {
    if (!IsLive(i)) continue;
    t0_[w] = t0_[i];
    p0_[w] = p0_[i];
    t1_[w] = t1_[i];
    p1_[w] = p1_[i];
    max_dur = std::max(max_dur, t1_[i] - t0_[i]);
    ++w;
  }
  t0_.resize(w);
  p0_.resize(w);
  t1_.resize(w);
  p1_.resize(w);
  dead_.clear();
  tombstones_ = 0;
  max_duration_ = max_dur;
  ++compactions_;
  RebuildBlocksFrom(0);
  // Return memory once the live set is well below capacity, so
  // RetainedBytes tracks the live store rather than its historical peak
  // (threshold-triggered compactions only — see ShrinkIfSlack).
  if (allow_shrink) {
    bool shrank = ShrinkIfSlack(t0_);
    shrank = ShrinkIfSlack(p0_) || shrank;
    shrank = ShrinkIfSlack(t1_) || shrank;
    shrank = ShrinkIfSlack(p1_) || shrank;
    shrank = ShrinkIfSlack(dead_) || shrank;
    shrank = ShrinkIfSlack(blocks_) || shrank;
    if (shrank) ++shrinks_;
  }
}

std::size_t SortedSegments::LowerBoundByReach(TimeStep t) const {
  // First segment with start time >= t - max_duration_; anything earlier
  // finished strictly before t.
  const TimeStep cutoff = t - max_duration_;
  auto it = std::lower_bound(t0_.begin(), t0_.end(), cutoff);
  return static_cast<std::size_t>(it - t0_.begin());
}

std::size_t SortedSegments::UpperBoundByStart(TimeStep t) const {
  // First segment with start time > t.
  auto it = std::upper_bound(t0_.begin(), t0_.end(), t);
  return static_cast<std::size_t>(it - t0_.begin());
}

TimeStep SortedSegments::EarliestCollisionInRange(
    std::int64_t ct0, std::int64_t cp0, std::int64_t ct1, std::int64_t cp1,
    bool use_reach_bound, ScanCounters& sc) const {
  // Segments are ordered by start time; anything starting after the
  // candidate finishes cannot overlap (binary-searched bound). Scanning
  // the whole prefix below it is the linear term of Sec. V-B's
  // O(2 log n + n) naive store; the two-sided reach bound is part of the
  // *indexed* store's design (Sec. V-D + DESIGN.md).
  const std::size_t end = UpperBoundByStart(ct1);
  const std::size_t lo = use_reach_bound ? LowerBoundByReach(ct0) : 0;
  if (lo >= end) return kInfiniteTime;

  const std::int64_t c_min_pos = std::min(cp0, cp1);
  const std::int64_t c_max_pos = std::max(cp0, cp1);
  // The candidate's rotated line key under slope s's mapping (Eq. 4:
  // key = pos - s*t) is linear along the candidate, so over the whole
  // candidate it spans the interval between its endpoint values. A stored
  // segment of slope s has one constant integer key; a conflict point lies
  // on both segments, so that key must fall inside the envelope (swap
  // crossings at half-integer times included — the key at the crossing is
  // still the stored segment's own integer key).
  std::int64_t klo[3];
  std::int64_t khi[3];
  for (int s = -1; s <= 1; ++s) {
    const std::int64_t a = cp0 - s * ct0;
    const std::int64_t b = cp1 - s * ct1;
    klo[s + 1] = std::min(a, b);
    khi[s + 1] = std::max(a, b);
  }

  TimeStep earliest = kInfiniteTime;
  const std::size_t b_end = (end + kBlockSize - 1) / kBlockSize;
  for (std::size_t b = lo / kBlockSize; b < b_end; ++b) {
    const std::size_t s_begin = std::max(lo, b * kBlockSize);
    const std::size_t s_end = std::min(end, (b + 1) * kBlockSize);
    if (summary_pruning_) {
      // Slots are start-time sorted, so every remaining slot starts at or
      // after t0_[s_begin]; a collision there cannot beat `earliest`.
      if (earliest <= t0_[s_begin]) break;
      const BlockSummary& bs = blocks_[b];
      if (bs.live == 0 || bs.max_t1 < ct0 || bs.min_t0 > ct1 ||
          bs.max_pos < c_min_pos || bs.min_pos > c_max_pos ||
          KeysDisjoint(bs, klo, khi)) {
        ++sc.blocks_skipped;
        sc.pruned_by_summary += bs.live;
        continue;
      }
    }
    ++sc.blocks_scanned;
    for (std::size_t q = s_begin; q < s_end;) {
      const std::size_t q_end =
          std::min(s_end, (q / kQuarterSize + 1) * kQuarterSize);
      // A quarter whose live slots all finish before ct0 holds no
      // candidate (its slots would all fail the time test, uncounted).
      if (summary_pruning_ &&
          blocks_[b].quarter_max_t1[(q % kBlockSize) / kQuarterSize] < ct0) {
        q = q_end;
        continue;
      }
      for (std::size_t i = q; i < q_end; ++i) {
        // Every slot below `end` starts at or before ct1, so only its
        // finish time can rule out a time overlap. Most scanned slots fail
        // here (79% on daybench's W-3 day), and testing the one column
        // keeps the other three out of the cache for them.
        if (!IsLive(i) || t1_[i] < ct0) continue;
        const std::int64_t st0 = t0_[i];
        if (summary_pruning_) {
          const std::int64_t sp0 = p0_[i];
          const std::int64_t sp1 = p1_[i];
          if (std::max(sp0, sp1) < c_min_pos ||
              std::min(sp0, sp1) > c_max_pos) {
            ++sc.pruned_by_summary;
            continue;
          }
          const int s = SlotSlope(p0_[i], p1_[i]);
          const std::int64_t key = sp0 - s * st0;
          if (key < klo[s + 1] || key > khi[s + 1]) {
            ++sc.pruned_by_summary;
            continue;
          }
        }
        ++sc.examined;
        const TimeStep t = PackedCollisionTime(Get(i), ct0, cp0, ct1, cp1);
        if (t < earliest) earliest = t;
      }
      q = q_end;
    }
  }
  return earliest;
}

bool SortedSegments::OccupiedAt(std::int64_t pos, TimeStep t,
                                ScanCounters& sc) const {
  // Only segments whose start lies within the longest stored duration
  // before t can cover t: the same two-sided window as the collision scan.
  const std::size_t end = UpperBoundByStart(t);
  const std::size_t lo = LowerBoundByReach(t);
  if (lo >= end) return false;

  const std::size_t b_end = (end + kBlockSize - 1) / kBlockSize;
  for (std::size_t b = lo / kBlockSize; b < b_end; ++b) {
    const std::size_t s_begin = std::max(lo, b * kBlockSize);
    const std::size_t s_end = std::min(end, (b + 1) * kBlockSize);
    if (summary_pruning_) {
      const BlockSummary& bs = blocks_[b];
      // A covering slot of slope s satisfies key = pos - s*t exactly, so
      // the probe's three possible keys must hit a slope class's range.
      bool key_possible = false;
      for (int s = -1; s <= 1 && !key_possible; ++s) {
        const std::int64_t k = pos - s * t;
        key_possible = k >= bs.min_key[s + 1] && k <= bs.max_key[s + 1];
      }
      if (bs.live == 0 || bs.max_t1 < t || bs.min_t0 > t ||
          bs.max_pos < pos || bs.min_pos > pos || !key_possible) {
        ++sc.blocks_skipped;
        sc.pruned_by_summary += bs.live;
        continue;
      }
    }
    ++sc.blocks_scanned;
    for (std::size_t q = s_begin; q < s_end;) {
      const std::size_t q_end =
          std::min(s_end, (q / kQuarterSize + 1) * kQuarterSize);
      if (summary_pruning_ &&
          blocks_[b].quarter_max_t1[(q % kBlockSize) / kQuarterSize] < t) {
        q = q_end;
        continue;
      }
      for (std::size_t i = q; i < q_end; ++i) {
        // Slots below `end` start at or before t, as in the collision scan.
        if (!IsLive(i) || t1_[i] < t) continue;
        ++sc.examined;
        const std::int64_t s = SlotSlope(p0_[i], p1_[i]);
        if (p0_[i] + s * (t - t0_[i]) == pos) return true;
      }
      q = q_end;
    }
  }
  return false;
}

std::string SortedSegments::CheckInvariants() const {
  std::ostringstream err;
  const std::size_t n = slot_count();
  if (p0_.size() != n || t1_.size() != n || p1_.size() != n) {
    err << "SortedSegments: coordinate arrays disagree on size: " << n << "/"
        << p0_.size() << "/" << t1_.size() << "/" << p1_.size();
    return err.str();
  }
  if (!dead_.empty() && dead_.size() != n) {
    err << "SortedSegments: dead flag array has " << dead_.size()
        << " slots for " << n << " items";
    return err.str();
  }
  std::size_t dead_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!IsLive(i)) ++dead_count;
    if (i > 0 && CompareSlot(i - 1, Get(i)) > 0) {
      err << "SortedSegments: out of order at slot " << i << ": "
          << Get(i - 1).Unpack() << " then " << Get(i).Unpack();
      return err.str();
    }
    if (IsLive(i) && t1_[i] - t0_[i] > max_duration_) {
      err << "SortedSegments: live slot " << i << " duration "
          << t1_[i] - t0_[i] << " exceeds max_duration " << max_duration_;
      return err.str();
    }
  }
  if (dead_count != tombstones_) {
    err << "SortedSegments: " << dead_count << " dead flags but tombstone"
        << " counter says " << tombstones_;
    return err.str();
  }
  if (tombstones_ > n) {
    err << "SortedSegments: tombstones " << tombstones_ << " exceed slots "
        << n;
    return err.str();
  }
  // Every block summary must equal an exact recomputation over its live
  // slots — this is what keeps summary-based block skipping answer-
  // preserving under tombstoning, Remove, PruneBefore, and compaction.
  const std::size_t n_blocks = (n + kBlockSize - 1) / kBlockSize;
  if (blocks_.size() != n_blocks) {
    err << "SortedSegments: " << blocks_.size() << " block summaries for "
        << n << " slots (want " << n_blocks << ")";
    return err.str();
  }
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const BlockSummary want = Summarize(b);
    if (!(blocks_[b] == want)) {
      err << "SortedSegments: block " << b << " summary is stale (live "
          << blocks_[b].live << " vs recomputed " << want.live << ", t ["
          << blocks_[b].min_t0 << "," << blocks_[b].max_t1 << "] vs ["
          << want.min_t0 << "," << want.max_t1 << "], pos ["
          << blocks_[b].min_pos << "," << blocks_[b].max_pos << "] vs ["
          << want.min_pos << "," << want.max_pos << "])";
      return err.str();
    }
  }
  return {};
}

bool SortedSegments::CorruptOneSummaryForTest() {
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    if (blocks_[b].live == 0) continue;
    // Collapse the time window to an empty interval: the kernel will skip
    // the block, hiding its live segments from collision judgement.
    blocks_[b].min_t0 = BlockSummary::kHi;
    blocks_[b].max_t1 = BlockSummary::kLo;
    return true;
  }
  return false;
}

}  // namespace internal_store

void NaiveSegmentStore::Insert(const geometry::Segment& segment) {
  segments_.Insert(internal_store::PackedSegment::Pack(segment));
  MaybeAudit();
}

bool NaiveSegmentStore::Remove(const geometry::Segment& segment) {
  if (!segments_.Remove(internal_store::PackedSegment::Pack(segment))) {
    return false;
  }
  NoteErase();
  MaybeAudit();
  return true;
}

std::size_t NaiveSegmentStore::PruneBefore(TimeStep t) {
  const std::size_t dropped = segments_.PruneBefore(t);
  NotePruned(dropped);
  MaybeAudit();
  return dropped;
}

void NaiveSegmentStore::ForEachLive(
    const std::function<void(const geometry::Segment&)>& fn) const {
  segments_.ForEachLive(fn);
}

TimeStep NaiveSegmentStore::EarliestCollisionTime(
    const geometry::Segment& candidate) const {
  internal_store::ScanCounters sc;
  const TimeStep earliest = segments_.EarliestCollisionInRange(
      candidate.start().t, candidate.start().pos, candidate.finish().t,
      candidate.finish().pos, /*use_reach_bound=*/false, sc);
  NoteQuery(sc);
  return earliest;
}

bool NaiveSegmentStore::OccupiedAt(std::int64_t pos, TimeStep t) const {
  internal_store::ScanCounters sc;
  const bool occupied = segments_.OccupiedAt(pos, t, sc);
  NoteQuery(sc);
  return occupied;
}

}  // namespace carp::srp
