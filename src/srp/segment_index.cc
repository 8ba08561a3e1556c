#include "srp/segment_index.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "geometry/rotation.h"

namespace carp::srp {

using internal_store::PackedSegment;
using internal_store::ScanCounters;

namespace internal_store {

int LineIndex::CompareSlot(std::size_t i, std::int64_t key,
                           const PackedSegment& s) const {
  if (key_[i] != key) return key_[i] < key ? -1 : 1;
  if (t0_[i] != s.t0) return t0_[i] < s.t0 ? -1 : 1;
  if (t1_[i] != s.t1) return t1_[i] < s.t1 ? -1 : 1;
  return 0;
}

std::size_t LineIndex::LowerBoundKeyTime(std::int64_t probe_key,
                                         TimeStep t0_floor) const {
  std::size_t lo = 0;
  std::size_t hi = slot_count();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const bool less = key_[mid] != probe_key ? key_[mid] < probe_key
                                             : TimeStep{t0_[mid]} < t0_floor;
    if (less) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::size_t LineIndex::UpperBoundKeyTime(std::int64_t probe_key,
                                         TimeStep t0_ceil) const {
  std::size_t lo = 0;
  std::size_t hi = slot_count();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const bool greater = key_[mid] != probe_key
                             ? key_[mid] > probe_key
                             : TimeStep{t0_[mid]} > t0_ceil;
    if (greater) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void LineIndex::RebuildBlock(std::size_t b) {
  LineBlock lb;
  const std::size_t begin = b * kBlockSize;
  const std::size_t end = std::min(begin + kBlockSize, slot_count());
  for (std::size_t i = begin; i < end; ++i) {
    if (!IsLive(i)) continue;
    lb.min_key = std::min(lb.min_key, key_[i]);
    lb.max_key = std::max(lb.max_key, key_[i]);
    lb.min_t0 = std::min(lb.min_t0, t0_[i]);
    lb.max_t1 = std::max(lb.max_t1, t1_[i]);
    ++lb.live;
  }
  blocks_[b] = lb;
}

void LineIndex::RebuildBlocksFrom(std::size_t first) {
  const std::size_t n_blocks = (slot_count() + kBlockSize - 1) / kBlockSize;
  blocks_.resize(n_blocks);
  for (std::size_t b = first; b < n_blocks; ++b) RebuildBlock(b);
}

void LineIndex::Insert(std::int64_t key, const PackedSegment& segment) {
  std::size_t idx = LowerBoundKeyTime(key, segment.t0);
  while (idx < slot_count() && CompareSlot(idx, key, segment) <= 0) ++idx;
  key_.Insert(idx, key);
  t0_.Insert(idx, segment.t0);
  t1_.Insert(idx, segment.t1);
  if (!dead_.empty()) dead_.Insert(idx, 0);
  RebuildBlocksFrom(idx / kBlockSize);
}

bool LineIndex::Remove(std::int64_t key, const PackedSegment& segment) {
  for (std::size_t i = LowerBoundKeyTime(key, segment.t0);
       i < slot_count() && CompareSlot(i, key, segment) <= 0; ++i) {
    if (CompareSlot(i, key, segment) != 0 || !IsLive(i)) continue;
    if (dead_.empty()) dead_.Assign(slot_count(), 0);
    dead_[i] = 1;
    ++tombstones_;
    RebuildBlock(i / kBlockSize);
    // Same amortization as SortedSegments: O(n) compaction only once half
    // the entries are dead, with a floor that spares tiny indexes.
    if (tombstones_ >= 64 && 2 * tombstones_ >= slot_count()) {
      CompactLines(/*allow_shrink=*/true);
    }
    return true;
  }
  return false;
}

void LineIndex::PruneBefore(TimeStep t) {
  // Rebuild over the survivors (live and not yet expired) in one pass,
  // like the eager compaction in SortedSegments.
  NoteBucketsErased(CountDyingBuckets(
      [&](std::size_t i) { return IsLive(i) && t1_[i] >= t; }));
  std::size_t w = 0;
  for (std::size_t i = 0; i < slot_count(); ++i) {
    if (!IsLive(i) || t1_[i] < t) continue;
    key_[w] = key_[i];
    t0_[w] = t0_[i];
    t1_[w] = t1_[i];
    ++w;
  }
  if (w == slot_count() && dead_.empty()) return;  // nothing changed
  key_.Resize(w);
  t0_.Resize(w);
  t1_.Resize(w);
  dead_.Clear();
  tombstones_ = 0;
  ++compactions_;
  RebuildBlocksFrom(0);
  // Capacity intentionally kept on the prune path — see ShrinkIfSlack.
}

void LineIndex::CompactLines(bool allow_shrink) {
  NoteBucketsErased(
      CountDyingBuckets([&](std::size_t i) { return IsLive(i); }));
  std::size_t w = 0;
  for (std::size_t i = 0; i < slot_count(); ++i) {
    if (!IsLive(i)) continue;
    key_[w] = key_[i];
    t0_[w] = t0_[i];
    t1_[w] = t1_[i];
    ++w;
  }
  key_.Resize(w);
  t0_.Resize(w);
  t1_.Resize(w);
  dead_.Clear();
  tombstones_ = 0;
  ++compactions_;
  RebuildBlocksFrom(0);
  if (allow_shrink) {
    bool shrank = key_.ShrinkIfSlack();
    shrank = t0_.ShrinkIfSlack() || shrank;
    shrank = t1_.ShrinkIfSlack() || shrank;
    shrank = dead_.ShrinkIfSlack() || shrank;
    shrank = ShrinkIfSlack(blocks_) || shrank;
    if (shrank) ++shrinks_;
  }
}

TimeStep LineIndex::EarliestSameSlope(std::int64_t key, TimeStep ct0,
                                      TimeStep ct1, TimeStep cutoff,
                                      ScanCounters& sc) const {
  const std::size_t n = slot_count();
  // Two-sided bound within the bucket: entries are sorted by
  // (key, start time), so skip entries that finished before the candidate
  // starts (same reach bound as the cross-slope scan). Every slot from
  // here on has key >= `key`.
  std::size_t i = LowerBoundKeyTime(key, cutoff);
  TimeStep earliest = kInfiniteTime;
  // Lane kernels engage in summary mode with in-domain probe times; the
  // first decisive bit (hit or stop) of a block mask reproduces the scalar
  // walk exactly. Bits below the lower bound are masked off: such slots
  // can spuriously read as stops (smaller key, later start), and the
  // scalar loop never visits them. The key tail sentinel (+inf) reads as a
  // stop, ending the scan at the logical end just as running off the
  // array does.
  std::int32_t ct0_32 = 0;
  std::int32_t ct1_32 = 0;
  const bool lanes = summary_pruning_ &&
                     kernel_ == CollisionKernel::kAvx2 && key_.FullyPadded() &&
                     NarrowToI32(ct0, &ct0_32) && NarrowToI32(ct1, &ct1_32);
  while (i < n) {
    const std::size_t b = i / kBlockSize;
    const std::size_t b_end = std::min((b + 1) * kBlockSize, n);
    if (summary_pruning_) {
      const LineBlock& lb = blocks_[b];
      // Slots are key-sorted, so once a block's live keys all exceed the
      // bucket key, no later live slot can be in the bucket.
      if (lb.live > 0 && lb.min_key > key) break;
      if (lb.live == 0 || lb.max_key < key || lb.max_t1 < ct0 ||
          lb.min_t0 > ct1) {
        ++sc.blocks_skipped;
        i = b_end;
        continue;
      }
    }
    ++sc.blocks_scanned;
    // Lanes only for block-aligned entries (b_end - i is not the scalar
    // walk length — that ends at the first key change, and same-slope
    // buckets are typically tiny). A scan enters a block at its boundary
    // only after walking a whole previous block without a decisive slot,
    // i.e. exactly when the bucket is long enough for lanes to pay off.
    if (lanes && i == b * kBlockSize && b_end - i >= kMinLaneSpanAvx2) {
      const std::size_t base = b * kBlockSize;
      const LineForwardMasks m =
          LineForwardAvx2(key_.data() + base, t0_.data() + base,
                          t1_.data() + base, DeadPtr(base), key, ct0_32,
                          ct1_32);
      sc.lanes_processed += static_cast<std::int64_t>(kBlockSize);
      const std::uint64_t from_i = ~std::uint64_t{0} << (i - base);
      const std::uint64_t decisive = (m.hits | m.stops) & from_i;
      if (decisive == 0) {
        i = b_end;
        continue;
      }
      const int d = std::countr_zero(decisive);
      if ((m.hits >> d & 1) != 0) {
        ++sc.examined;
        ++sc.lanes_survived;
        earliest = std::min(earliest,
                            std::max(ct0, TimeStep{t0_[base + d]}));
      }
      // Either way the scan is over: a hit is the earliest conflict in
      // summary mode (start times are monotone within the bucket), and a
      // stop ends the bucket.
      return earliest;
    }
    for (; i < b_end; ++i) {
      // Bucket entries are ordered by start time and later slots only grow
      // in key, so either condition ends the whole scan.
      if (key_[i] > key || t0_[i] > ct1) return earliest;
      if (!IsLive(i) || t1_[i] < ct0) continue;
      ++sc.examined;
      // Any time overlap on one line is a conflict from the later start.
      earliest = std::min(earliest, std::max(ct0, TimeStep{t0_[i]}));
      // Start times are monotone within the bucket, so the first overlap
      // is the earliest conflict (legacy mode keeps the full flat scan so
      // examined counts reproduce the pre-summary kernel exactly).
      if (summary_pruning_) return earliest;
    }
  }
  return earliest;
}

bool LineIndex::Covers(std::int64_t key, TimeStep t,
                       std::int32_t max_duration, ScanCounters& sc) const {
  // The covering entry, if any, is the last one on this line starting at
  // or before t; every slot below the bound has key <= `key`.
  std::size_t i = UpperBoundKeyTime(key, t);
  const TimeStep cutoff = t - TimeStep{max_duration};
  // Lane kernels engage under the same rule as the forward scan. The
  // backward walk decides at the *highest* decisive bit below the upper
  // bound, with the scalar precedence: a smaller key ends the scan before
  // the slot is examined, a hit answers true, falling out of reach ends it
  // after examination. Slots above the decider are exactly the ones the
  // scalar loop examines and passes over.
  std::int32_t t32 = 0;
  std::int32_t cut32 = 0;
  const bool lanes = summary_pruning_ &&
                     kernel_ == CollisionKernel::kAvx2 && key_.FullyPadded() &&
                     NarrowToI32(t, &t32) && NarrowToI32(cutoff, &cut32);
  std::size_t counted_block = slot_count() + 1;
  while (i > 0) {
    const std::size_t b = (i - 1) / kBlockSize;
    if (summary_pruning_ && i % kBlockSize == 0) {
      const LineBlock& lb = blocks_[b];
      // Key-sortedness: once a block's live keys all fall below the line
      // key, no earlier live slot can be on the line.
      if (lb.live > 0 && lb.max_key < key) return false;
      if (lb.live == 0 || lb.min_key > key || lb.max_t1 < t) {
        ++sc.blocks_skipped;
        i = b * kBlockSize;
        continue;
      }
    }
    if (b != counted_block) {
      ++sc.blocks_scanned;
      counted_block = b;
    }
    // Mirror of the forward scan's gate: a backward walk reaches a block
    // boundary (full span below) only after examining a whole block above
    // without deciding, so partial first blocks stay on the cheap
    // early-exit scalar walk.
    if (lanes && i % kBlockSize == 0) {
      const std::size_t base = b * kBlockSize;
      const LineCoverMasks m =
          LineCoverAvx2(key_.data() + base, t0_.data() + base,
                        t1_.data() + base, DeadPtr(base), key, t32, cut32);
      sc.lanes_processed += static_cast<std::int64_t>(kBlockSize);
      const std::size_t in_block = i - base;  // 1..kBlockSize
      const std::uint64_t below_i =
          in_block >= 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << in_block) - 1;
      const std::uint64_t decisive =
          (m.hits | m.key_below | m.below_reach) & below_i;
      if (decisive == 0) {
        // Every visited slot was an examined non-answer (all on-line, all
        // within reach); continue into the previous block.
        sc.examined += static_cast<std::int64_t>(in_block);
        sc.lanes_survived += static_cast<std::int64_t>(in_block);
        i = base;
        continue;
      }
      const int d = 63 - std::countl_zero(decisive);
      const std::int64_t above =
          static_cast<std::int64_t>(in_block) - 1 - d;
      if ((m.key_below >> d & 1) != 0) {
        sc.examined += above;
        sc.lanes_survived += above;
        return false;
      }
      sc.examined += above + 1;
      sc.lanes_survived += above + 1;
      return (m.hits >> d & 1) != 0;
    }
    --i;
    if (key_[i] < key) return false;
    ++sc.examined;
    if (IsLive(i) && t1_[i] >= t) return true;  // covers t
    // Earlier same-line entries may still cover t only if they outlast
    // this one; with monotone start times their finish can exceed this
    // one's, so keep scanning while within reach.
    if (TimeStep{t0_[i]} < cutoff) return false;
  }
  return false;
}

std::string LineIndex::CheckInvariants() const {
  std::ostringstream err;
  const std::size_t n = slot_count();
  if (t0_.size() != n || t1_.size() != n) {
    err << "LineIndex: coordinate arrays disagree on size";
    return err.str();
  }
  if (!dead_.empty() && dead_.size() != n) {
    err << "LineIndex: dead flag array has " << dead_.size() << " slots for "
        << n << " entries";
    return err.str();
  }
  // Tail sentinels are answer-critical for the lane kernels: the key
  // sentinel terminates forward bucket scans at the logical end, and the
  // time sentinels keep padding slots out of every cover test.
  if (!key_.TailIsPoisoned() || !t0_.TailIsPoisoned() ||
      !t1_.TailIsPoisoned() || !dead_.TailIsPoisoned()) {
    err << "LineIndex: padded tail slots past " << n
        << " are not sentinel-poisoned";
    return err.str();
  }
  std::size_t dead_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!IsLive(i)) ++dead_count;
    if (i > 0 && CompareSlot(i - 1, key_[i], Get(i)) > 0) {
      err << "LineIndex: out of order at slot " << i << " (key "
          << key_[i - 1] << " then " << key_[i] << ")";
      return err.str();
    }
  }
  if (dead_count != tombstones_) {
    err << "LineIndex: " << dead_count << " dead flags but tombstone"
        << " counter says " << tombstones_;
    return err.str();
  }
  const std::size_t n_blocks = (n + kBlockSize - 1) / kBlockSize;
  if (blocks_.size() != n_blocks) {
    err << "LineIndex: " << blocks_.size() << " block summaries for " << n
        << " slots (want " << n_blocks << ")";
    return err.str();
  }
  for (std::size_t b = 0; b < n_blocks; ++b) {
    LineBlock want;
    const std::size_t begin = b * kBlockSize;
    const std::size_t bend = std::min(begin + kBlockSize, n);
    for (std::size_t i = begin; i < bend; ++i) {
      if (!IsLive(i)) continue;
      want.min_key = std::min(want.min_key, key_[i]);
      want.max_key = std::max(want.max_key, key_[i]);
      want.min_t0 = std::min(want.min_t0, t0_[i]);
      want.max_t1 = std::max(want.max_t1, t1_[i]);
      ++want.live;
    }
    if (!(blocks_[b] == want)) {
      err << "LineIndex: block " << b << " summary is stale (live "
          << blocks_[b].live << " vs recomputed " << want.live << ", key ["
          << blocks_[b].min_key << "," << blocks_[b].max_key << "] vs ["
          << want.min_key << "," << want.max_key << "])";
      return err.str();
    }
  }
  return {};
}

}  // namespace internal_store

IndexedSegmentStore::IndexedSegmentStore(bool summary_pruning,
                                         CollisionKernel kernel) {
  const CollisionKernel resolved = core::ResolveCollisionKernel(kernel);
  for (int slope = -1; slope <= 1; ++slope) {
    SlopeClass& cls = classes_[SlopeSlot(slope)];
    cls.all.set_summary_pruning(summary_pruning);
    cls.all.set_kernel(resolved);
    cls.by_line.set_summary_pruning(summary_pruning);
    cls.by_line.set_kernel(resolved);
    cls.by_line.set_slope(slope);
  }
}

void IndexedSegmentStore::Insert(const geometry::Segment& segment) {
  SlopeClass& cls = classes_[SlopeSlot(segment.slope())];
  const PackedSegment packed = PackedSegment::Pack(segment);
  cls.all.Insert(packed);
  cls.by_line.Insert(geometry::IndexKey(segment), packed);
  MaybeAudit();
}

bool IndexedSegmentStore::Remove(const geometry::Segment& segment) {
  SlopeClass& cls = classes_[SlopeSlot(segment.slope())];
  const PackedSegment packed = PackedSegment::Pack(segment);
  if (!cls.all.Remove(packed)) return false;
  NoteErase();
  const std::int64_t key = geometry::IndexKey(segment);
  if (cls.by_line.Remove(key, packed)) {
    MaybeAudit();
    return true;
  }
  // `all` held a live copy of this segment, so its line bucket must hold a
  // live copy too — the two sequences index the same live multiset. Landing
  // here means they have already diverged; returning "removed" would bury
  // the divergence (the next same-line query answers from a bucket that is
  // one segment short). Fail loudly with enough context to replay.
  CARP_CHECK(false) << "IndexedSegmentStore::Remove: " << segment
                    << " (line key " << key << ") had a live copy in"
                    << " `all` but none in `by_line` — index divergence";
  return false;
}

std::size_t IndexedSegmentStore::PruneBefore(TimeStep t) {
  std::size_t dropped = 0;
  for (SlopeClass& cls : classes_) {
    dropped += cls.all.PruneBefore(t);
    cls.by_line.PruneBefore(t);
  }
  NotePruned(dropped);
  MaybeAudit();
  return dropped;
}

TimeStep IndexedSegmentStore::EarliestCollisionTime(
    const geometry::Segment& candidate) const {
  ScanCounters sc;
  const int k = candidate.slope();
  const TimeStep ct0 = candidate.start().t;
  const std::int64_t cp0 = candidate.start().pos;
  const TimeStep ct1 = candidate.finish().t;
  const std::int64_t cp1 = candidate.finish().pos;

  // Same slope: only the candidate's line bucket can conflict (parallel
  // segments on distinct lines never meet).
  const SlopeClass& own = classes_[SlopeSlot(k)];
  TimeStep earliest = own.by_line.EarliestSameSlope(
      geometry::IndexKey(candidate), ct0, ct1,
      /*cutoff=*/ct0 - own.all.max_duration(), sc);

  // Other slopes: time-overlap scan of the two remaining ordered sequences
  // (the n - n' linear term of the paper's analysis), block-summarized.
  for (int slope = -1; slope <= 1; ++slope) {
    if (slope == k) continue;
    const SlopeClass& cls = classes_[SlopeSlot(slope)];
    earliest = std::min(
        earliest, cls.all.EarliestCollisionInRange(
                      ct0, cp0, ct1, cp1, /*use_reach_bound=*/true, sc));
  }
  NoteQuery(sc);
  return earliest;
}

bool IndexedSegmentStore::OccupiedAt(std::int64_t pos, TimeStep t) const {
  ScanCounters sc;
  for (int slope = -1; slope <= 1; ++slope) {
    const SlopeClass& cls = classes_[SlopeSlot(slope)];
    const std::int64_t key =
        geometry::LineKey(slope, geometry::SpaceTimePoint{t, pos});
    if (cls.by_line.Covers(key, t, cls.all.max_duration(), sc)) {
      NoteQuery(sc);
      return true;
    }
  }
  NoteQuery(sc);
  return false;
}

void IndexedSegmentStore::ForEachLive(
    const std::function<void(const geometry::Segment&)>& fn) const {
  for (const SlopeClass& cls : classes_) cls.all.ForEachLive(fn);
}

std::string IndexedSegmentStore::CheckInvariants() const {
  std::ostringstream err;
  for (int slope = -1; slope <= 1; ++slope) {
    const SlopeClass& cls = classes_[SlopeSlot(slope)];
    if (std::string inner = cls.all.CheckInvariants(); !inner.empty()) {
      err << "slope " << slope << ": " << inner;
      return err.str();
    }
    if (std::string inner = cls.by_line.CheckInvariants(); !inner.empty()) {
      err << "slope " << slope << ": " << inner;
      return err.str();
    }
    std::vector<PackedSegment> line_live;
    for (std::size_t i = 0; i < cls.by_line.slot_count(); ++i) {
      if (!cls.by_line.IsLive(i)) continue;
      const PackedSegment packed = cls.by_line.Get(i);
      const geometry::Segment seg = packed.Unpack();
      if (seg.slope() != slope) {
        err << "slope " << slope << ": live entry " << seg << " has slope "
            << seg.slope();
        return err.str();
      }
      if (cls.by_line.key(i) != geometry::IndexKey(seg)) {
        err << "slope " << slope << ": live entry " << seg
            << " filed under key " << cls.by_line.key(i)
            << " but Eq. (4) gives " << geometry::IndexKey(seg);
        return err.str();
      }
      line_live.push_back(packed);
    }
    // The drop-in equivalence claim in miniature: the two sequences must
    // always index the same live multiset.
    std::vector<PackedSegment> all_live;
    for (std::size_t i = 0; i < cls.all.slot_count(); ++i) {
      if (cls.all.IsLive(i)) all_live.push_back(cls.all.Get(i));
    }
    std::sort(line_live.begin(), line_live.end());
    std::sort(all_live.begin(), all_live.end());
    if (line_live != all_live) {
      err << "slope " << slope << ": live multisets diverge — `all` holds "
          << all_live.size() << " segments, `by_line` holds "
          << line_live.size();
      return err.str();
    }
  }
  return {};
}

std::size_t IndexedSegmentStore::size() const {
  std::size_t n = 0;
  for (const auto& cls : classes_) n += cls.all.size();
  return n;
}

std::size_t IndexedSegmentStore::RetainedBytes() const {
  std::size_t bytes = 0;
  for (const auto& cls : classes_) {
    bytes += cls.all.RetainedBytes();
    bytes += cls.by_line.RetainedBytes();
  }
  return bytes;
}

void IndexedSegmentStore::AddStructureStats(SegmentStoreStats& s) const {
  s.kernel = kernel();
  for (const auto& cls : classes_) {
    s.tombstones += static_cast<std::int64_t>(cls.all.tombstones() +
                                              cls.by_line.tombstones());
    s.compactions += cls.all.compactions() + cls.by_line.compactions();
    s.shrinks += cls.all.shrinks() + cls.by_line.shrinks();
    s.by_line_tombstones += static_cast<std::int64_t>(cls.by_line.tombstones());
    s.by_line_compactions += cls.by_line.compactions();
    s.by_line_shrinks += cls.by_line.shrinks();
    s.buckets_erased += cls.by_line.buckets_erased();
  }
}

std::size_t IndexedSegmentStore::MaxBucketSize() const {
  std::size_t max_bucket = 0;
  for (const auto& cls : classes_) {
    std::size_t run = 0;
    std::int64_t last_key = 0;
    bool first = true;
    for (std::size_t i = 0; i < cls.by_line.slot_count(); ++i) {
      if (!cls.by_line.IsLive(i)) continue;
      const std::int64_t k = cls.by_line.key(i);
      if (first || k != last_key) {
        run = 1;
        last_key = k;
        first = false;
      } else {
        ++run;
      }
      max_bucket = std::max(max_bucket, run);
    }
  }
  return max_bucket;
}

}  // namespace carp::srp
