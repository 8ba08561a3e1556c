#ifndef CARP_SRP_BOUNDARY_CROSSINGS_H_
#define CARP_SRP_BOUNDARY_CROSSINGS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/memory_accounting.h"
#include "common/types.h"

namespace carp::srp {

/// Registry of inter-strip boundary crossings.
///
/// Intra-strip segments capture every (cell, time) occupancy, so all vertex
/// conflicts are visible to segment intersection. The one blind spot is a
/// *swap across a strip boundary*: robot 1 moves a->b while robot 2 moves
/// b->a in the same timestep, with a and b in different strips — inside
/// each strip the two trajectories are disjoint points. This registry
/// records every committed crossing (from, to, t) so planners can reject
/// the opposite crossing (to, from, t) in O(1). See DESIGN.md, model notes.
///
/// Crossings are *counted*, like the segment stores' multisets: a commit
/// trusts its caller and does not reject a crossing already recorded, and
/// releasing one copy must not delete another's swap protection, so each
/// key carries a multiplicity instead of set membership.
///
/// Storage is one flat open-addressing table of (64-bit key, count) slots:
/// linear probing over a power-of-two capacity, load factor at most 1/2,
/// doubling on growth, and backward-shift deletion, so a probe run never
/// holds a tombstone.
class BoundaryCrossings {
 public:
  /// Records a crossing that departs `from` at time `t` and arrives at the
  /// 4-adjacent cell `to` at `t + 1`.
  void Insert(GridCoord from, GridCoord to, TimeStep t) {
    const std::uint64_t key = Key(from, to, t);
    if ((size_ + 1) * 2 > slots_.size()) {
      Rehash(std::max(kMinCapacity, slots_.size() * 2));
    }
    Slot& slot = slots_[SlotOf(key)];
    if (slot.key == kEmpty) {
      slot.key = key;
      ++size_;
    }
    ++slot.count;
    ++total_;
  }

  /// Removes one recorded copy of a crossing (route release / speculative
  /// rollback); no-op if absent.
  void Remove(GridCoord from, GridCoord to, TimeStep t) {
    const std::uint64_t key = Key(from, to, t);
    if (size_ == 0) return;
    const std::size_t i = SlotOf(key);
    if (slots_[i].key == kEmpty) return;
    --total_;
    if (--slots_[i].count == 0) EraseAt(i);
  }

  /// Drops every crossing that departs strictly before `t`; returns how
  /// many keys were dropped. Callers guarantee no future query probes
  /// crossings earlier than `t`. One pass rebuilds the survivors into a
  /// fresh table of the same capacity.
  std::size_t PruneBefore(TimeStep t) {
    std::vector<Slot> old(slots_.size());
    old.swap(slots_);
    std::size_t dropped = 0;
    for (const Slot& slot : old) {
      if (slot.key == kEmpty) continue;
      if (TimeOf(slot.key) < t) {
        total_ -= slot.count;
        ++dropped;
      } else {
        slots_[SlotOf(slot.key)] = slot;
      }
    }
    size_ -= dropped;
    return dropped;
  }

  /// True when some committed route crosses `to` -> `from` departing at
  /// `t`, i.e. the proposed `from` -> `to` move at `t` would swap.
  bool WouldSwap(GridCoord from, GridCoord to, TimeStep t) const {
    const std::uint64_t key = Key(to, from, t);
    return size_ != 0 && slots_[SlotOf(key)].key == key;
  }

  /// Recorded multiplicity of the crossing `from` -> `to` at `t`.
  std::int64_t CountOf(GridCoord from, GridCoord to, TimeStep t) const {
    const std::uint64_t key = Key(from, to, t);
    return size_ == 0 ? 0 : slots_[SlotOf(key)].count;
  }

  /// Total recorded crossings, multiplicity included (so releasing every
  /// committed route must drive this back to zero — the lifecycle audit's
  /// handle on the registry).
  std::int64_t TotalCount() const { return total_; }

  /// Distinct recorded crossings.
  std::size_t size() const { return size_; }

  /// Every slot of the table, occupied or not: capacity x 16 bytes (0
  /// until the first insert).
  std::size_t RetainedBytes() const { return mem::BytesOf(slots_); }

  /// Order-independent digest of the recorded (crossing, multiplicity)
  /// content — the registry's contribution to Planner::StateFingerprint.
  /// Summing per-entry hashes makes the digest independent of slot
  /// placement, so two registries holding the same multiset hash
  /// identically regardless of insertion history or capacity.
  std::uint64_t ContentHash() const {
    std::uint64_t digest = 0;
    for (const Slot& slot : slots_) {
      if (slot.key == kEmpty) continue;
      std::uint64_t x = slot.key * 0x9e3779b97f4a7c15ULL;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x ^= static_cast<std::uint64_t>(slot.count) * 0xd6e8feb86659fd93ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      digest += x ^ (x >> 31);
    }
    return digest;
  }

  /// Forgets every crossing; keeps the table's capacity.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
    total_ = 0;
  }

  /// Structural audit: the capacity is 0 or a power of two holding at most
  /// half occupied slots, every occupied slot carries a positive
  /// multiplicity and is the first match its own probe reaches (so no key
  /// is duplicated or cut off from its home slot by an empty slot), empty
  /// slots carry no count, and the multiplicities sum to `total_`. Empty
  /// string = pass.
  std::string CheckInvariants() const {
    std::ostringstream err;
    const std::size_t capacity = slots_.size();
    if (capacity != 0 &&
        (capacity < kMinCapacity || !std::has_single_bit(capacity) ||
         shift_ != 64 - std::countr_zero(capacity))) {
      err << "BoundaryCrossings: capacity " << capacity
          << " is not a power of two >= " << kMinCapacity
          << " matching hash shift " << shift_;
      return err.str();
    }
    std::size_t occupied = 0;
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < capacity; ++i) {
      const Slot& slot = slots_[i];
      if (slot.key == kEmpty) {
        if (slot.count != 0) {
          err << "BoundaryCrossings: empty slot " << i << " holds count "
              << slot.count;
          return err.str();
        }
        continue;
      }
      if (slot.count <= 0) {
        err << "BoundaryCrossings: key at t=" << TimeOf(slot.key)
            << " has non-positive multiplicity " << slot.count;
        return err.str();
      }
      if (SlotOf(slot.key) != i) {
        err << "BoundaryCrossings: key at t=" << TimeOf(slot.key)
            << " in slot " << i << " is not reachable from its home slot "
            << Home(slot.key);
        return err.str();
      }
      ++occupied;
      sum += slot.count;
    }
    if (occupied != size_ || 2 * size_ > capacity) {
      err << "BoundaryCrossings: " << occupied << " occupied slots, size "
          << size_ << ", capacity " << capacity;
      return err.str();
    }
    if (sum != total_) {
      err << "BoundaryCrossings: multiplicities sum to " << sum
          << " but total counter says " << total_;
      return err.str();
    }
    return {};
  }

 private:
  // Key layout, most significant bit first:
  //   [63:49] departure row (15 bits)   [48:34] departure column (15 bits)
  //   [33:32] direction to the 4-adjacent arrival cell (2 bits)
  //   [31:0]  departure time (32 bits)
  // Cells lie in [0, 2^15) and times in [0, 2^32 - 1), so no crossing
  // encodes to the all-ones empty-slot sentinel and distinct crossings
  // never alias.
  static constexpr int kCoordBits = 15;
  static constexpr int kTimeBits = 32;
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    std::uint64_t key = kEmpty;
    std::int32_t count = 0;
  };

  static bool InRange(GridCoord g) {
    return static_cast<std::uint32_t>(g.row) < (1u << kCoordBits) &&
           static_cast<std::uint32_t>(g.col) < (1u << kCoordBits);
  }

  static std::uint64_t Key(GridCoord from, GridCoord to, TimeStep t) {
    CARP_CHECK(InRange(from) && InRange(to))
        << "crossing " << from << "->" << to << " outside [0, 2^15)";
    const std::int32_t dr = to.row - from.row;
    const std::int32_t dc = to.col - from.col;
    CARP_CHECK(dr * dr + dc * dc == 1)
        << "crossing " << from << "->" << to << " is not 4-adjacent";
    CARP_CHECK(t >= 0 && t < (TimeStep{1} << kTimeBits) - 1)
        << "crossing time " << t << " outside [0, 2^32 - 1)";
    // 0: col - 1, 1: col + 1, 2: row - 1, 3: row + 1.
    const std::uint64_t dir = (dr != 0 ? 2u : 0u) | (dr + dc > 0 ? 1u : 0u);
    return (static_cast<std::uint64_t>(from.row) << (kTimeBits + 2 +
                                                     kCoordBits)) |
           (static_cast<std::uint64_t>(from.col) << (kTimeBits + 2)) |
           (dir << kTimeBits) | static_cast<std::uint64_t>(t);
  }

  static TimeStep TimeOf(std::uint64_t key) {
    return static_cast<TimeStep>(key & ((std::uint64_t{1} << kTimeBits) - 1));
  }

  // Fibonacci hashing of the key with its cell half folded onto its time
  // half; the top log2(capacity) bits of the product pick the home slot.
  std::size_t Home(std::uint64_t key) const {
    return static_cast<std::size_t>(((key ^ (key >> 32)) *
                                     0x9e3779b97f4a7c15ULL) >>
                                    shift_);
  }

  // Slot holding `key`, or the empty slot that ends its probe run.
  // Requires a non-empty table (load <= 1/2 guarantees an empty slot).
  std::size_t SlotOf(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Home(key);
    while (slots_[i].key != key && slots_[i].key != kEmpty) {
      i = (i + 1) & mask;
    }
    return i;
  }

  // Backward-shift deletion: pulls each later slot of the run whose home
  // lies cyclically at or before the hole into it, then empties the last
  // hole.
  void EraseAt(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (hole + 1) & mask; slots_[i].key != kEmpty;
         i = (i + 1) & mask) {
      if (((i - Home(slots_[i].key)) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  void Rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.key != kEmpty) slots_[SlotOf(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64;  // 64 - log2(capacity)
  std::size_t size_ = 0;
  std::int64_t total_ = 0;
};

}  // namespace carp::srp

#endif  // CARP_SRP_BOUNDARY_CROSSINGS_H_
