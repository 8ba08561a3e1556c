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
  /// Every 3rd re-insert of a previously removed segment is silently
  /// dropped — the shape of "a failed LNS repair's rollback lost part of
  /// the original route" (DESIGN.md §2i): fresh commits are untouched, so
  /// only the release-then-recommit lifecycle (rollback recommitting the
  /// originals bit-identically) can trip it, and the live-multiset audit
  /// of FuzzLifecycleRollback must flag the loss.
  kLostRollback,
};

/// A correct store with one injected bug, for proving the differential
/// fuzzer's detection power: tests assert that FuzzStores flags each fault
/// within the CI smoke budget (DESIGN.md §2d). Wraps NaiveSegmentStore so
/// the only divergence from a trusted implementation is the fault itself.
class FaultySegmentStore final : public srp::SegmentStore {
 public:
  explicit FaultySegmentStore(StoreFault fault) : fault_(fault) {}

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

  std::size_t size() const override { return inner_.size(); }
  std::size_t RetainedBytes() const override {
    return inner_.RetainedBytes();
  }
  void ForEachLive(const std::function<void(const geometry::Segment&)>& fn)
      const override {
    inner_.ForEachLive(fn);
  }
  std::string CheckInvariants() const override {
    return inner_.CheckInvariants();
  }

 private:
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
  std::unordered_set<std::uint64_t> removed_keys_;
};

}  // namespace carp::check

#endif  // CARP_CHECK_FAULTY_STORE_H_
