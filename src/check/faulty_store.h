#ifndef CARP_CHECK_FAULTY_STORE_H_
#define CARP_CHECK_FAULTY_STORE_H_

#include <cstdint>
#include <unordered_set>

#include "geometry/segment.h"
#include "srp/segment_store.h"

namespace carp::check {

/// Which deliberate bug a FaultySegmentStore carries.
enum class StoreFault {
  /// Every 5th Insert is silently skipped — the shape of "forgot to insert
  /// into one of the parallel sequences" (e.g. the by_line_dead slot in the
  /// slope index): the store answers "free" where a route is committed.
  kGhostInsert,
  /// Every 3rd successful Remove reports success without removing — a lost
  /// tombstone: released state lingers and blocks future routes.
  kDropRemove,
  /// PruneBefore(t) drops segments ending exactly at t too — the classic
  /// strict-vs-inclusive cutoff mix-up.
  kPruneOffByOne,
  /// Every 4th Insert leaves one block summary stale (its time window
  /// collapsed to empty) — the shape of "forgot to rebuild the summary on a
  /// structural edit": the two-level kernel skips a block that still holds
  /// live segments and answers "free" where a route is committed.
  kStaleSummary,
  /// Every Insert (once the store is large enough to carry a padded
  /// partial tail) revives one sentinel-poisoned tail slot by cloning the
  /// last real segment into it — the shape of "forgot to re-poison the
  /// padding after a structural edit" (DESIGN.md §2g): a full-block lane
  /// scan sees a phantom segment the scalar loop never visits, and the
  /// tail-poisoning invariant audit flags the column structurally.
  kCorruptSimdTail,
  /// Every 3rd re-insert of a previously removed segment is silently
  /// dropped — the shape of "a failed LNS repair's rollback lost part of
  /// the original route" (DESIGN.md §2i): fresh commits are untouched, so
  /// only the release-then-recommit lifecycle (rollback recommitting the
  /// originals bit-identically) can trip it, and the live-multiset audit
  /// of FuzzLifecycleRollback must flag the loss.
  kLostRollback,
  /// Every 7th committed segment is *accounted* to the wrong shard of the
  /// ShardMap while the segment itself lands in the right strip store —
  /// the shape of "computed the owner from the wrong leg" in the sharded
  /// commit path (DESIGN.md §2h). Totals still match, so only the
  /// per-shard audit (ShardMap::CheckInvariants against per-strip store
  /// sizes) can see it. This fault lives above any single store: it is
  /// exercised by FuzzShardAccounting, not by FaultySegmentStore.
  kCrossShardLeak,
  /// One goal's distance table carries inadmissible entries (overestimates
  /// planted around the goal with inverted preferences) — the shape of "a
  /// stale or mis-encoded table steered A* to a suboptimal arrival"
  /// (DESIGN.md §2j). Like kCrossShardLeak this lives above any single
  /// store: it is exercised by RunHeuristicFaultCalibration, which proves
  /// the table-vs-Manhattan cost-mismatch audit of the planner
  /// differential catches the corruption within the seed budget.
  kCorruptHeuristicEntry,
  /// Every free interval the safe-interval extractor derives has its upper
  /// bound extended one step into the occupied slot that ends it — the
  /// shape of "inclusive-vs-exclusive bound mix-up in interval extraction"
  /// (DESIGN.md §2k): the interval engine believes a cell is free at the
  /// exact timestep a reservation begins, so it books routes that are
  /// cheaper than the time-expanded oracle's *and* collide. Like
  /// kCorruptHeuristicEntry this lives above any single store: it is
  /// injected via core::SafeIntervalMap::SetOverwideFaultForTest and
  /// exercised by RunEngineFaultCalibration, which proves the engine
  /// differential's cost-equality + collision audits catch it within the
  /// seed budget.
  kOverwideInterval,
};

/// A correct store with one injected bug, for proving the differential
/// fuzzer's detection power: tests assert that FuzzStores flags each fault
/// within the CI smoke budget (DESIGN.md §2d). Wraps NaiveSegmentStore so
/// the only divergence from a trusted implementation is the fault itself.
class FaultySegmentStore final : public srp::SegmentStore {
 public:
  // The tail fault's phantom segment is only visible to the lane kernel,
  // so that variant pins AVX2. Where AVX2 is unavailable (or
  // CARP_FORCE_KERNEL=scalar overrides the pin) the store runs scalar and
  // the fault is caught structurally instead: CheckInvariants' tail-
  // poisoning audit flags the revived slot either way.
  explicit FaultySegmentStore(StoreFault fault)
      : fault_(fault),
        inner_(/*summary_pruning=*/true,
               fault == StoreFault::kCorruptSimdTail
                   ? srp::CollisionKernel::kAvx2
                   : srp::CollisionKernel::kAuto) {
    if (fault_ == StoreFault::kCorruptSimdTail) {
      // A sentinel tail only exists once the store spans more than one
      // full block, and fuzzed populations equilibrate well below that.
      // Ballast far outside the fuzzed time domain forces the padded
      // multi-block regime while staying invisible to every differential
      // check: it never time-overlaps a fuzzed probe, is never removed
      // (Remove targets committed segments) and never pruned (cutoffs stay
      // below the horizon), and size()/ForEachLive subtract it back out.
      for (std::int64_t i = 0; i < 80; ++i) {
        inner_.Insert(geometry::Segment({kBallastTime + 8 * i, i % 40},
                                        {kBallastTime + 8 * i + 4,
                                         i % 40 + 4}));
        ++ballast_;
      }
    }
  }

  void Insert(const geometry::Segment& segment) override {
    if (fault_ == StoreFault::kGhostInsert && ++inserts_ % 5 == 0) return;
    if (fault_ == StoreFault::kLostRollback &&
        removed_keys_.count(SegmentKey(segment)) != 0 &&
        ++reinserts_ % 3 == 0) {
      return;  // the lost rollback: a recommit of released state vanishes
    }
    inner_.Insert(segment);
    if (fault_ == StoreFault::kStaleSummary && ++inserts_ % 4 == 0) {
      inner_.CorruptSummaryForTest();
    }
    if (fault_ == StoreFault::kCorruptSimdTail) {
      // Re-arm after every Insert: the corruption needs a padded partial
      // tail to exist (no-op until the store grows past one block) and any
      // later resize re-poisons it.
      inner_.CorruptSimdTailForTest();
    }
  }

  bool Remove(const geometry::Segment& segment) override {
    if (fault_ == StoreFault::kDropRemove) {
      // Peek: only miscount removes that would have succeeded.
      if (inner_.EarliestCollisionTime(segment) != kInfiniteTime &&
          ++removes_ % 3 == 0) {
        return true;
      }
    }
    const bool removed = inner_.Remove(segment);
    if (fault_ == StoreFault::kLostRollback && removed) {
      removed_keys_.insert(SegmentKey(segment));
    }
    return removed;
  }

  std::size_t PruneBefore(TimeStep t) override {
    return inner_.PruneBefore(
        fault_ == StoreFault::kPruneOffByOne ? t + 1 : t);
  }

  TimeStep EarliestCollisionTime(
      const geometry::Segment& candidate) const override {
    return inner_.EarliestCollisionTime(candidate);
  }

  bool OccupiedAt(std::int64_t pos, TimeStep t) const override {
    return inner_.OccupiedAt(pos, t);
  }

  std::size_t size() const override { return inner_.size() - ballast_; }
  std::size_t RetainedBytes() const override {
    return inner_.RetainedBytes();
  }
  void ForEachLive(const std::function<void(const geometry::Segment&)>& fn)
      const override {
    inner_.ForEachLive([&fn](const geometry::Segment& s) {
      if (s.start().t >= kBallastTime) return;  // hide the ballast
      fn(s);
    });
  }
  std::string CheckInvariants() const override {
    return inner_.CheckInvariants();
  }

 private:
  /// Start time of the kCorruptSimdTail ballast — far past any fuzzed
  /// probe, prune cutoff, or committed segment.
  static constexpr TimeStep kBallastTime = 100'000;

  static std::uint64_t SegmentKey(const geometry::Segment& s) {
    const auto mix = [](std::uint64_t x) {
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    };
    std::uint64_t h = mix(static_cast<std::uint64_t>(s.start().t) * 4 +
                          static_cast<std::uint64_t>(s.start().pos) +
                          0x9e3779b97f4a7c15ULL);
    h = mix(h ^ (static_cast<std::uint64_t>(s.finish().t) * 4 +
                 static_cast<std::uint64_t>(s.finish().pos)));
    return h;
  }

  StoreFault fault_;
  srp::NaiveSegmentStore inner_;
  std::int64_t inserts_ = 0;
  std::int64_t removes_ = 0;
  std::int64_t reinserts_ = 0;
  std::size_t ballast_ = 0;
  std::unordered_set<std::uint64_t> removed_keys_;
};

}  // namespace carp::check

#endif  // CARP_CHECK_FAULTY_STORE_H_
