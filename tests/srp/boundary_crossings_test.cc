#include "srp/boundary_crossings.h"

#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace carp::srp {
namespace {

TEST(BoundaryCrossingsTest, DetectsOppositeCrossing) {
  BoundaryCrossings bc;
  bc.Insert({3, 4}, {3, 5}, 10);
  EXPECT_TRUE(bc.WouldSwap({3, 5}, {3, 4}, 10));
  EXPECT_FALSE(bc.WouldSwap({3, 4}, {3, 5}, 10));  // same direction is fine
}

TEST(BoundaryCrossingsTest, TimeSpecific) {
  BoundaryCrossings bc;
  bc.Insert({0, 0}, {0, 1}, 7);
  EXPECT_TRUE(bc.WouldSwap({0, 1}, {0, 0}, 7));
  EXPECT_FALSE(bc.WouldSwap({0, 1}, {0, 0}, 6));
  EXPECT_FALSE(bc.WouldSwap({0, 1}, {0, 0}, 8));
}

TEST(BoundaryCrossingsTest, CellSpecific) {
  BoundaryCrossings bc;
  bc.Insert({2, 2}, {2, 3}, 5);
  EXPECT_FALSE(bc.WouldSwap({2, 4}, {2, 3}, 5));
  EXPECT_FALSE(bc.WouldSwap({3, 3}, {2, 3}, 5));
}

TEST(BoundaryCrossingsTest, RemoveUndoesInsert) {
  BoundaryCrossings bc;
  bc.Insert({1, 1}, {1, 2}, 3);
  EXPECT_EQ(bc.size(), 1u);
  bc.Remove({1, 1}, {1, 2}, 3);
  EXPECT_EQ(bc.size(), 0u);
  EXPECT_FALSE(bc.WouldSwap({1, 2}, {1, 1}, 3));
  bc.Remove({1, 1}, {1, 2}, 3);  // idempotent
}

TEST(BoundaryCrossingsTest, ClearAndBytes) {
  BoundaryCrossings bc;
  EXPECT_EQ(bc.RetainedBytes(), 0u);
  for (TimeStep t = 0; t < 100; ++t) {
    bc.Insert({0, 0}, {0, 1}, t);
  }
  EXPECT_EQ(bc.size(), 100u);
  // 100 keys at load <= 1/2 over a power-of-two capacity: 256 slots of
  // 16 bytes.
  EXPECT_EQ(bc.RetainedBytes(), 256u * 16);
  bc.Clear();
  EXPECT_EQ(bc.size(), 0u);
  EXPECT_EQ(bc.TotalCount(), 0);
  EXPECT_FALSE(bc.WouldSwap({0, 1}, {0, 0}, 7));
  EXPECT_EQ(bc.RetainedBytes(), 256u * 16);  // Clear keeps the capacity
  EXPECT_EQ(bc.CheckInvariants(), "");
}

TEST(BoundaryCrossingsTest, DistinctCellPairsDoNotAlias) {
  BoundaryCrossings bc;
  bc.Insert({10, 20}, {10, 21}, 100);
  bc.Insert({20, 10}, {21, 10}, 100);
  EXPECT_TRUE(bc.WouldSwap({10, 21}, {10, 20}, 100));
  EXPECT_TRUE(bc.WouldSwap({21, 10}, {20, 10}, 100));
  EXPECT_FALSE(bc.WouldSwap({10, 20}, {10, 21}, 100));
  EXPECT_EQ(bc.size(), 2u);
}

TEST(BoundaryCrossingsTest, CountsMultiplicities) {
  BoundaryCrossings bc;
  bc.Insert({4, 4}, {5, 4}, 2);
  bc.Insert({4, 4}, {5, 4}, 2);
  EXPECT_EQ(bc.size(), 1u);
  EXPECT_EQ(bc.TotalCount(), 2);
  EXPECT_EQ(bc.CountOf({4, 4}, {5, 4}, 2), 2);
  bc.Remove({4, 4}, {5, 4}, 2);
  EXPECT_TRUE(bc.WouldSwap({5, 4}, {4, 4}, 2));  // one copy still protects
  bc.Remove({4, 4}, {5, 4}, 2);
  EXPECT_FALSE(bc.WouldSwap({5, 4}, {4, 4}, 2));
  EXPECT_EQ(bc.TotalCount(), 0);
}

// The four directions out of one cell, and the extreme cells and times the
// key encodes, are distinct keys: none aliases another or the empty-slot
// sentinel.
TEST(BoundaryCrossingsTest, ExtremeKeysAndDirectionsDoNotAlias) {
  constexpr std::int32_t kMax = (1 << 15) - 1;
  constexpr TimeStep kLast = (TimeStep{1} << 32) - 2;
  const GridCoord c{100, 200};
  const std::vector<GridCoord> arrivals = {
      {100, 199}, {100, 201}, {99, 200}, {101, 200}};
  BoundaryCrossings bc;
  for (const GridCoord& to : arrivals) bc.Insert(c, to, 5);
  bc.Insert({kMax, kMax}, {kMax, kMax - 1}, kLast);
  bc.Insert({kMax - 1, kMax}, {kMax, kMax}, kLast);
  bc.Insert({0, 0}, {1, 0}, 0);
  EXPECT_EQ(bc.size(), 7u);
  for (const GridCoord& to : arrivals) {
    EXPECT_EQ(bc.CountOf(c, to, 5), 1);
    EXPECT_TRUE(bc.WouldSwap(to, c, 5));
    EXPECT_EQ(bc.CountOf(c, to, 6), 0);
  }
  EXPECT_TRUE(bc.WouldSwap({kMax, kMax - 1}, {kMax, kMax}, kLast));
  EXPECT_TRUE(bc.WouldSwap({kMax, kMax}, {kMax - 1, kMax}, kLast));
  EXPECT_FALSE(bc.WouldSwap({kMax, kMax}, {kMax, kMax - 1}, kLast));
  EXPECT_TRUE(bc.WouldSwap({1, 0}, {0, 0}, 0));
  EXPECT_EQ(bc.PruneBefore(kLast), 5u);
  EXPECT_EQ(bc.size(), 2u);
  EXPECT_EQ(bc.CheckInvariants(), "");
}

using BoundaryCrossingsDeathTest = ::testing::Test;

TEST(BoundaryCrossingsDeathTest, RejectsCellsOutsideFifteenBits) {
  BoundaryCrossings bc;
  // A column of 2^16 would spill into the row field.
  EXPECT_DEATH(bc.Insert({0, 1 << 16}, {0, (1 << 16) + 1}, 0), "2\\^15");
  EXPECT_DEATH(bc.Insert({1 << 15, 0}, {(1 << 15) - 1, 0}, 0), "2\\^15");
  EXPECT_DEATH(bc.WouldSwap({0, 0}, {0, -1}, 0), "2\\^15");
  EXPECT_DEATH(bc.CountOf({-1, 3}, {0, 3}, 0), "2\\^15");
}

TEST(BoundaryCrossingsDeathTest, RejectsCellsThatAreNotFourAdjacent) {
  BoundaryCrossings bc;
  EXPECT_DEATH(bc.Insert({3, 3}, {3, 3}, 0), "not 4-adjacent");
  EXPECT_DEATH(bc.Insert({3, 3}, {4, 4}, 0), "not 4-adjacent");
  EXPECT_DEATH(bc.Remove({3, 3}, {3, 5}, 0), "not 4-adjacent");
  EXPECT_DEATH(bc.WouldSwap({3, 3}, {1, 3}, 0), "not 4-adjacent");
}

TEST(BoundaryCrossingsDeathTest, RejectsTimesOutsideThirtyTwoBits) {
  BoundaryCrossings bc;
  EXPECT_DEATH(bc.Insert({0, 0}, {0, 1}, -1), "2\\^32");
  // 2^32 - 1 with the all-ones cell and direction is the empty sentinel.
  EXPECT_DEATH(bc.Insert({0, 0}, {0, 1}, (TimeStep{1} << 32) - 1), "2\\^32");
  EXPECT_DEATH(bc.WouldSwap({0, 0}, {0, 1}, TimeStep{1} << 40), "2\\^32");
}

// Reference model: the crossing multiset as an ordered map.
using CrossingKey = std::tuple<std::int32_t, std::int32_t, std::int32_t,
                               std::int32_t, TimeStep>;
using Reference = std::map<CrossingKey, std::int64_t>;

GridCoord From(const CrossingKey& k) {
  return {std::get<0>(k), std::get<1>(k)};
}
GridCoord To(const CrossingKey& k) { return {std::get<2>(k), std::get<3>(k)}; }

// Randomised model check against the reference multiset. Keys crowd into
// shared probe runs (three departure cells, mostly one of them, with dense
// times), so inserts, backward-shift deletions, prune rebuilds and growths
// all move keys that other keys' probes pass through.
TEST(BoundaryCrossingsTest, MatchesReferenceMultisetUnderRandomOperations) {
  const std::vector<std::pair<GridCoord, GridCoord>> moves = {
      {{7, 7}, {7, 8}}, {{7, 8}, {7, 7}}, {{7, 7}, {8, 7}}};
  Rng rng(20240617);
  auto random_key = [&](TimeStep lo, TimeStep span) {
    const auto& [from, to] = moves[rng.Bernoulli(0.8) ? 0 : rng.UniformU32(3)];
    return CrossingKey{from.row, from.col, to.row, to.col,
                       lo + rng.UniformInt(0, span - 1)};
  };

  BoundaryCrossings bc;
  Reference ref;
  std::int64_t ref_total = 0;
  TimeStep cutoff = 0;
  int inserts = 0, removes = 0, erasing_removes = 0, absent_removes = 0;
  int prunes = 0, pruned_keys = 0, swap_hits = 0, swap_misses = 0;
  int count_probes = 0, growths = 0;

  for (int op = 0; op < 6000; ++op) {
    const std::size_t bytes_before = bc.RetainedBytes();
    // The live window widens over the stream, so the table keeps growing.
    const TimeStep span = 64 + op / 4;
    const std::uint32_t kind = rng.UniformU32(100);
    if (kind < 50) {
      const CrossingKey k = random_key(cutoff, span);
      bc.Insert(From(k), To(k), std::get<4>(k));
      ++ref[k];
      ++ref_total;
      ++inserts;
    } else if (kind < 75) {
      const CrossingKey k = random_key(cutoff, span);
      bc.Remove(From(k), To(k), std::get<4>(k));
      auto it = ref.find(k);
      if (it == ref.end()) {
        ++absent_removes;
      } else {
        --ref_total;
        ++removes;
        if (--it->second == 0) {
          ref.erase(it);
          ++erasing_removes;
        }
      }
    } else if (kind < 87) {
      const CrossingKey k = random_key(cutoff, span);
      const bool expected = ref.contains(k);
      EXPECT_EQ(bc.WouldSwap(To(k), From(k), std::get<4>(k)), expected);
      ++(expected ? swap_hits : swap_misses);
    } else if (kind < 99) {
      const CrossingKey k = random_key(cutoff, span);
      const auto it = ref.find(k);
      EXPECT_EQ(bc.CountOf(From(k), To(k), std::get<4>(k)),
                it == ref.end() ? 0 : it->second);
      ++count_probes;
    } else {
      cutoff += rng.UniformInt(1, 8);
      std::size_t expected_dropped = 0;
      for (auto it = ref.begin(); it != ref.end();) {
        if (std::get<4>(it->first) < cutoff) {
          ref_total -= it->second;
          it = ref.erase(it);
          ++expected_dropped;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(bc.PruneBefore(cutoff), expected_dropped) << "op " << op;
      pruned_keys += static_cast<int>(expected_dropped);
      ++prunes;
    }
    if (bc.RetainedBytes() > bytes_before && bytes_before > 0) ++growths;

    ASSERT_EQ(bc.size(), ref.size()) << "op " << op;
    ASSERT_EQ(bc.TotalCount(), ref_total) << "op " << op;
    ASSERT_EQ(bc.CheckInvariants(), "") << "op " << op;
    for (const auto& [k, count] : ref) {
      ASSERT_EQ(bc.CountOf(From(k), To(k), std::get<4>(k)), count)
          << "op " << op << " t=" << std::get<4>(k);
    }
  }

  // Non-vacuity: every operation kind ran, with effect, across growths.
  EXPECT_GT(inserts, 0);
  EXPECT_GT(removes, 0);
  EXPECT_GT(erasing_removes, 0);
  EXPECT_GT(absent_removes, 0);
  EXPECT_GT(prunes, 0);
  EXPECT_GT(pruned_keys, 0);
  EXPECT_GT(swap_hits, 0);
  EXPECT_GT(swap_misses, 0);
  EXPECT_GT(count_probes, 0);
  EXPECT_GE(growths, 3);
  EXPECT_GT(ref.size(), 100u);

  // The same multiset fed in another order (reverse key order, copies
  // interleaved, no removals or prunes) hashes identically; one copy more
  // or less does not.
  BoundaryCrossings replay;
  std::vector<std::pair<CrossingKey, std::int64_t>> entries(ref.rbegin(),
                                                            ref.rend());
  for (bool inserted = true; inserted;) {
    inserted = false;
    for (auto& [k, left] : entries) {
      if (left == 0) continue;
      replay.Insert(From(k), To(k), std::get<4>(k));
      --left;
      inserted = true;
    }
  }
  EXPECT_EQ(replay.ContentHash(), bc.ContentHash());
  const CrossingKey& first = ref.begin()->first;
  replay.Insert(From(first), To(first), std::get<4>(first));
  EXPECT_NE(replay.ContentHash(), bc.ContentHash());
}

}  // namespace
}  // namespace carp::srp
