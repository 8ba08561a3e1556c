#ifndef CARP_CORE_BUCKET_QUEUE_H_
#define CARP_CORE_BUCKET_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace carp::core {

/// Two-level dial (bucket) queue for the search cores' open lists
/// (DESIGN.md §2j). The searches' keys are small non-negative integers
/// with unit edge weights, so a ring of per-f-value buckets replaces the
/// binary heap: push appends to a cell, pop scans forward from the current
/// minimum — O(1) amortised against the total key span instead of
/// O(log n) comparisons per operation.
///
/// Ordering contract: items pop in ascending `f`; ties in ascending `h`;
/// ties in FIFO push order. Space-time A* pushes `h = f - g`
/// (min f, then deepest g, then oldest); SRP's strip searches push
/// `h = 0` (min f, then oldest).
///
/// The f-ring is a power-of-two array indexed by `f & mask`. Weighted
/// searches may push an f *below* the current minimum (SRP's inflated
/// heuristic is not monotone), so the minimum tracker follows pushes both
/// ways. Each bucket remembers which concrete f owns it; a push whose f
/// collides with a different live f means the live key span outgrew the
/// ring, and the ring doubles by draining and re-pushing (per-cell FIFO
/// order preserved, so the ordering contract survives growth).
///
/// Capacity is retained across Clear() — the scratch-reuse contract the
/// planners' steady-state memory accounting relies on.
template <typename Payload>
class BucketQueue {
 public:
  struct Item {
    std::int64_t f = 0;
    std::int64_t h = 0;
    Payload payload{};
  };

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Drops all queued items but keeps every allocation (ring, cells).
  void Clear() {
    if (live_ == 0) return;
    for (FBucket& bucket : ring_) {
      if (bucket.live == 0) continue;
      DrainBucket(bucket);
    }
    live_ = 0;
  }

  /// Enqueues `payload` under key (f, h). `h` must be non-negative and
  /// small (it indexes the second-level dial); `f` may be any integer.
  void Push(std::int64_t f, std::int64_t h, Payload payload) {
    CARP_CHECK(h >= 0) << "bucket queue sub-key must be non-negative";
    if (ring_.empty()) ring_.resize(kInitialRing);
    FBucket* bucket = &ring_[Slot(f)];
    if (bucket->live > 0 && bucket->f != f) {
      Grow(f);
      bucket = &ring_[Slot(f)];
    }
    if (bucket->live == 0) {
      bucket->f = f;
      bucket->min_h = h;
    } else if (h < bucket->min_h) {
      bucket->min_h = h;
    }
    if (static_cast<std::size_t>(h) >= bucket->by_h.size()) {
      bucket->by_h.resize(static_cast<std::size_t>(h) + 1);
    }
    Cell& cell = bucket->by_h[static_cast<std::size_t>(h)];
    if (cell.items.empty()) bucket->touched.push_back(h);
    cell.items.push_back(std::move(payload));
    ++bucket->live;
    min_f_ = (live_ == 0) ? f : (f < min_f_ ? f : min_f_);
    ++live_;
  }

  /// Dequeues the front item (min f, then min h, then FIFO). The queue
  /// must be non-empty.
  Item Pop() {
    CARP_CHECK(live_ > 0) << "Pop on empty bucket queue";
    // The minimum tracker is a lower bound: scan forward to the first
    // bucket that is live AND owned by the candidate f (a live slot owned
    // by a larger f that aliases the candidate is skipped, which is safe
    // because the span invariant keeps all live keys within one ring).
    for (;;) {
      FBucket& bucket = ring_[Slot(min_f_)];
      if (bucket.live > 0 && bucket.f == min_f_) break;
      ++min_f_;
    }
    FBucket& bucket = ring_[Slot(min_f_)];
    while (true) {
      Cell& cell = bucket.by_h[static_cast<std::size_t>(bucket.min_h)];
      if (cell.head < cell.items.size()) break;
      ++bucket.min_h;
    }
    Cell& cell = bucket.by_h[static_cast<std::size_t>(bucket.min_h)];
    Item item;
    item.f = bucket.f;
    item.h = bucket.min_h;
    item.payload = std::move(cell.items[cell.head++]);
    --bucket.live;
    --live_;
    if (bucket.live == 0) DrainBucket(bucket);
    return item;
  }

  /// Total payload slots retained across all cells (capacity, not size) —
  /// the number the planners fold into their scratch-footprint gauges.
  std::size_t RetainedSlots() const {
    std::size_t slots = 0;
    for (const FBucket& bucket : ring_) {
      for (const Cell& cell : bucket.by_h) slots += cell.items.capacity();
    }
    return slots;
  }

 private:
  struct Cell {
    std::vector<Payload> items;
    std::size_t head = 0;  // FIFO consume point; items[head..) are live
  };
  struct FBucket {
    std::int64_t f = 0;        // owning key, valid while live > 0
    std::size_t live = 0;      // queued items across all cells
    std::int64_t min_h = 0;    // lower bound on the smallest non-empty h
    std::vector<Cell> by_h;    // second-level dial, indexed by h
    std::vector<std::int64_t> touched;  // h cells holding data since drain
  };

  static constexpr std::size_t kInitialRing = 64;

  std::size_t Slot(std::int64_t f) const {
    // Two's-complement & is injective over any span smaller than the ring,
    // so negative keys are safe.
    return static_cast<std::size_t>(f) & (ring_.size() - 1);
  }

  /// Resets a bucket to reusable-by-any-f state, keeping allocations.
  static void DrainBucket(FBucket& bucket) {
    for (std::int64_t h : bucket.touched) {
      Cell& cell = bucket.by_h[static_cast<std::size_t>(h)];
      cell.items.clear();
      cell.head = 0;
    }
    bucket.touched.clear();
    bucket.live = 0;
  }

  /// The live key span outgrew the ring: double (at least) and re-push
  /// everything. Per-cell FIFO order is preserved because re-pushing
  /// appends in the cells' existing order.
  void Grow(std::int64_t incoming_f) {
    std::int64_t lo = incoming_f;
    std::int64_t hi = incoming_f;
    for (const FBucket& bucket : ring_) {
      if (bucket.live == 0) continue;
      lo = bucket.f < lo ? bucket.f : lo;
      hi = bucket.f > hi ? bucket.f : hi;
    }
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    std::size_t next = ring_.size();
    while (next < 2 * span) next *= 2;

    std::vector<FBucket> old;
    old.swap(ring_);
    ring_.resize(next);
    live_ = 0;
    for (FBucket& bucket : old) {
      if (bucket.live == 0) continue;
      for (std::int64_t h : bucket.touched) {
        Cell& cell = bucket.by_h[static_cast<std::size_t>(h)];
        for (std::size_t i = cell.head; i < cell.items.size(); ++i) {
          Push(bucket.f, h, std::move(cell.items[i]));
        }
      }
    }
  }

  std::vector<FBucket> ring_;  // power-of-two length
  std::size_t live_ = 0;       // total queued items
  std::int64_t min_f_ = 0;     // lower bound on the smallest live f
};

}  // namespace carp::core

#endif  // CARP_CORE_BUCKET_QUEUE_H_
