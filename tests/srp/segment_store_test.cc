#include "srp/segment_store.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "srp/segment_index.h"

namespace carp::srp {
namespace {

using geometry::Segment;

enum class StoreKind { kNaive, kIndexed };

std::unique_ptr<SegmentStore> MakeStore(StoreKind kind) {
  if (kind == StoreKind::kNaive) {
    return std::make_unique<NaiveSegmentStore>();
  }
  return std::make_unique<IndexedSegmentStore>();
}

class SegmentStoreTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  std::unique_ptr<SegmentStore> store_ = MakeStore(GetParam());
};

TEST_P(SegmentStoreTest, EmptyStoreNeverCollides) {
  EXPECT_EQ(store_->EarliestCollisionTime(Segment({0, 0}, {10, 10})),
            kInfiniteTime);
  EXPECT_EQ(store_->size(), 0u);
}

TEST_P(SegmentStoreTest, DetectsCrossingCollision) {
  store_->Insert(Segment({0, 4}, {4, 0}));
  EXPECT_EQ(store_->EarliestCollisionTime(Segment({0, 0}, {4, 4})), 2);
}

TEST_P(SegmentStoreTest, ReturnsEarliestAmongMultiple) {
  store_->Insert(Segment({0, 8}, {8, 0}));   // crosses at t=4
  store_->Insert(Segment({0, 2}, {10, 2}));  // wait at pos 2: hit at t=2
  EXPECT_EQ(store_->EarliestCollisionTime(Segment({0, 0}, {8, 8})), 2);
}

TEST_P(SegmentStoreTest, InsertRemoveRoundTrip) {
  const Segment seg({3, 1}, {7, 5});
  store_->Insert(seg);
  EXPECT_EQ(store_->size(), 1u);
  EXPECT_NE(store_->EarliestCollisionTime(Segment({3, 5}, {7, 1})),
            kInfiniteTime);
  EXPECT_TRUE(store_->Remove(seg));
  EXPECT_EQ(store_->size(), 0u);
  EXPECT_EQ(store_->EarliestCollisionTime(Segment({3, 5}, {7, 1})),
            kInfiniteTime);
  EXPECT_FALSE(store_->Remove(seg));
}

TEST_P(SegmentStoreTest, DuplicateSegmentsSupported) {
  const Segment seg({0, 0}, {5, 5});
  store_->Insert(seg);
  store_->Insert(seg);
  EXPECT_EQ(store_->size(), 2u);
  EXPECT_TRUE(store_->Remove(seg));
  EXPECT_EQ(store_->size(), 1u);
  EXPECT_NE(store_->EarliestCollisionTime(Segment({0, 5}, {5, 0})),
            kInfiniteTime);
}

TEST_P(SegmentStoreTest, RemovalsTombstoneThenCompact) {
  // Lazy deletion: removals tombstone in place and the store folds the
  // live remainder down once the threshold trips, so the erase counter
  // keeps the full history while the tombstone backlog stays bounded.
  std::vector<Segment> segs;
  for (int i = 0; i < 200; ++i) {
    segs.push_back(Segment({i, 0}, {i + 4, 4}));
  }
  for (const Segment& seg : segs) store_->Insert(seg);
  for (int i = 0; i < 150; ++i) {
    EXPECT_TRUE(store_->Remove(segs[static_cast<std::size_t>(i)]));
  }
  EXPECT_EQ(store_->size(), 50u);
  const SegmentStoreStats stats = store_->stats();
  EXPECT_EQ(stats.erases, 150);
  EXPECT_GE(stats.compactions, 1);
  EXPECT_LT(stats.tombstones, stats.erases);
  // Removed reservations are really gone; survivors still collide.
  EXPECT_EQ(store_->EarliestCollisionTime(Segment({0, 4}, {4, 0})),
            kInfiniteTime);
  EXPECT_NE(store_->EarliestCollisionTime(Segment({199, 4}, {203, 0})),
            kInfiniteTime);
}

TEST_P(SegmentStoreTest, PruneBeforeDropsOnlyExpired) {
  store_->Insert(Segment({0, 0}, {5, 5}));    // expires at t=5
  store_->Insert(Segment({2, 7}, {8, 7}));    // expires at t=8
  store_->Insert(Segment({8, 0}, {12, 4}));   // straddles the horizon
  store_->Insert(Segment({20, 5}, {26, 5}));  // entirely in the future
  EXPECT_EQ(store_->PruneBefore(10), 2u);
  EXPECT_EQ(store_->size(), 2u);
  EXPECT_EQ(store_->stats().pruned, 2);
  // Expired reservations no longer collide; the straddler still does.
  EXPECT_EQ(store_->EarliestCollisionTime(Segment({0, 5}, {5, 0})),
            kInfiniteTime);
  EXPECT_NE(store_->EarliestCollisionTime(Segment({8, 4}, {12, 0})),
            kInfiniteTime);
  EXPECT_TRUE(store_->OccupiedAt(5, 26));
  // Releasing a route whose segments were already pruned is a no-op.
  EXPECT_FALSE(store_->Remove(Segment({0, 0}, {5, 5})));
  EXPECT_TRUE(store_->Remove(Segment({8, 0}, {12, 4})));
  EXPECT_EQ(store_->PruneBefore(100), 1u);
  EXPECT_EQ(store_->size(), 0u);
}

TEST_P(SegmentStoreTest, OccupiedAtPointProbe) {
  store_->Insert(Segment({2, 3}, {6, 7}));  // diagonal through (4,5)
  EXPECT_TRUE(store_->OccupiedAt(5, 4));
  EXPECT_FALSE(store_->OccupiedAt(5, 5));
  EXPECT_TRUE(store_->OccupiedAt(3, 2));  // start endpoint
  EXPECT_TRUE(store_->OccupiedAt(7, 6));  // finish endpoint
  EXPECT_FALSE(store_->OccupiedAt(8, 7));
}

TEST_P(SegmentStoreTest, RetainedBytesGrowWithSegments) {
  const std::size_t empty = store_->RetainedBytes();
  for (int i = 0; i < 50; ++i) {
    store_->Insert(Segment({i * 10, 0}, {i * 10 + 5, 5}));
  }
  EXPECT_GT(store_->RetainedBytes(), empty);
}

TEST_P(SegmentStoreTest, StatsCountQueries) {
  store_->Insert(Segment({0, 0}, {5, 5}));
  store_->ResetStats();
  store_->EarliestCollisionTime(Segment({0, 5}, {5, 0}));
  store_->EarliestCollisionTime(Segment({20, 0}, {25, 5}));
  EXPECT_EQ(store_->stats().queries, 2);
}

Segment RandomStripSegment(Rng& rng) {
  const std::int64_t strip_length = 48;
  const std::int64_t dur = rng.UniformInt(0, 24);
  const std::int64_t t0 = rng.UniformInt(0, 256);
  const std::int64_t slope = rng.UniformInt(-1, 1);
  std::int64_t p0 = 0;
  if (slope > 0) {
    p0 = rng.UniformInt(0, strip_length - dur);
  } else if (slope < 0) {
    p0 = rng.UniformInt(dur, strip_length);
  } else {
    p0 = rng.UniformInt(0, strip_length);
  }
  return Segment({t0, p0}, {t0 + dur, p0 + slope * dur});
}

// Every population from empty through several blocks, riddled with
// tombstones, must answer like the flat scan: 0..64 walks the first block
// through every partial shape, the larger sizes cover multi-block stores
// whose last block is partial or exactly full.
TEST_P(SegmentStoreTest, PopulationsAnswerLikeFlatOracle) {
  std::vector<std::size_t> populations;
  for (std::size_t n = 0; n <= 64; ++n) populations.push_back(n);
  for (std::size_t n : {65u, 77u, 96u, 127u, 128u, 129u, 160u}) {
    populations.push_back(n);
  }
  for (const std::size_t n : populations) {
    Rng rng(1000 + n);
    auto store = MakeStore(GetParam());
    // The flat scan with summaries off is the bit-exact oracle.
    NaiveSegmentStore oracle(/*summary_pruning=*/false);
    std::vector<Segment> committed;
    for (std::size_t i = 0; i < n; ++i) {
      const Segment seg = RandomStripSegment(rng);
      store->Insert(seg);
      oracle.Insert(seg);
      committed.push_back(seg);
    }
    // Tombstone every 3rd committed segment so live runs are broken up
    // inside blocks.
    for (std::size_t i = 0; i < committed.size(); i += 3) {
      ASSERT_TRUE(store->Remove(committed[i]));
      ASSERT_TRUE(oracle.Remove(committed[i]));
    }
    for (int q = 0; q < 48; ++q) {
      const Segment probe = RandomStripSegment(rng);
      EXPECT_EQ(store->EarliestCollisionTime(probe),
                oracle.EarliestCollisionTime(probe))
          << "n=" << n << " probe " << q;
      const std::int64_t pos = rng.UniformInt(0, 48);
      const TimeStep t = rng.UniformInt(0, 280);
      EXPECT_EQ(store->OccupiedAt(pos, t), oracle.OccupiedAt(pos, t))
          << "n=" << n << " probe " << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothStores, SegmentStoreTest,
                         ::testing::Values(StoreKind::kNaive,
                                           StoreKind::kIndexed),
                         [](const auto& info) {
                           return info.param == StoreKind::kNaive
                                      ? "Naive"
                                      : "Indexed";
                         });

// ---------------------------------------------------------------------
// Equivalence property: on random segment populations, the slope-indexed
// store must report exactly the same earliest collision time as the naive
// store for every probe (Sec. V-D is an accelerator, not a relaxation).
// ---------------------------------------------------------------------

class StoreEquivalenceTest : public ::testing::TestWithParam<int> {};

Segment RandomSegment(Rng& rng) {
  const TimeStep t0 = rng.UniformInt(0, 40);
  const std::int64_t p0 = rng.UniformInt(0, 15);
  const TimeStep dur = rng.UniformInt(0, 12);
  const int slope = static_cast<int>(rng.UniformInt(-1, 1));
  std::int64_t p1 = p0 + slope * dur;
  if (p1 < 0 || p1 > 15) p1 = p0 - slope * dur;
  if (p1 < 0 || p1 > 15) p1 = p0;
  // |p1 - p0| is either dur or 0, so the duration is always `dur`.
  return Segment({t0, p0}, {t0 + dur, p1});
}

TEST_P(StoreEquivalenceTest, IndexedMatchesNaive) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337 + 11);
  NaiveSegmentStore naive;
  IndexedSegmentStore indexed;
  for (int i = 0; i < 300; ++i) {
    const Segment seg = RandomSegment(rng);
    naive.Insert(seg);
    indexed.Insert(seg);
  }
  ASSERT_EQ(naive.size(), indexed.size());
  for (int probe = 0; probe < 500; ++probe) {
    const Segment candidate = RandomSegment(rng);
    EXPECT_EQ(naive.EarliestCollisionTime(candidate),
              indexed.EarliestCollisionTime(candidate))
        << "candidate=" << candidate;
  }
}

TEST_P(StoreEquivalenceTest, IndexedMatchesNaiveAfterRemovals) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  NaiveSegmentStore naive;
  IndexedSegmentStore indexed;
  std::vector<Segment> inserted;
  for (int i = 0; i < 200; ++i) {
    const Segment seg = RandomSegment(rng);
    naive.Insert(seg);
    indexed.Insert(seg);
    inserted.push_back(seg);
  }
  // Remove half.
  for (std::size_t i = 0; i < inserted.size(); i += 2) {
    EXPECT_TRUE(naive.Remove(inserted[i]));
    EXPECT_TRUE(indexed.Remove(inserted[i]));
  }
  ASSERT_EQ(naive.size(), indexed.size());
  for (int probe = 0; probe < 300; ++probe) {
    const Segment candidate = RandomSegment(rng);
    EXPECT_EQ(naive.EarliestCollisionTime(candidate),
              indexed.EarliestCollisionTime(candidate));
  }
}

TEST_P(StoreEquivalenceTest, IndexedMatchesNaiveAfterPrune) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  NaiveSegmentStore naive;
  IndexedSegmentStore indexed;
  std::vector<Segment> inserted;
  for (int i = 0; i < 250; ++i) {
    const Segment seg = RandomSegment(rng);
    naive.Insert(seg);
    indexed.Insert(seg);
    inserted.push_back(seg);
  }
  // A prune sweep, then a round of releases landing on both pruned and
  // surviving segments — the mix a retiring simulator actually produces.
  EXPECT_EQ(naive.PruneBefore(20), indexed.PruneBefore(20));
  for (std::size_t i = 0; i < inserted.size(); i += 3) {
    EXPECT_EQ(naive.Remove(inserted[i]), indexed.Remove(inserted[i]));
  }
  ASSERT_EQ(naive.size(), indexed.size());
  for (int probe = 0; probe < 300; ++probe) {
    const Segment candidate = RandomSegment(rng);
    EXPECT_EQ(naive.EarliestCollisionTime(candidate),
              indexed.EarliestCollisionTime(candidate))
        << "candidate=" << candidate;
    EXPECT_EQ(naive.OccupiedAt(candidate.start().pos, candidate.start().t),
              indexed.OccupiedAt(candidate.start().pos, candidate.start().t));
  }
}

TEST_P(StoreEquivalenceTest, IndexedExaminesFewerCandidates) {
  // The point of the index: fewer pairwise judgements per query on
  // populations dominated by parallel segments. Compared with summary
  // pruning off so the measurement isolates the slope index itself (the
  // block summaries cut both stores' scans — pinned separately below).
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 101);
  NaiveSegmentStore naive(/*summary_pruning=*/false);
  IndexedSegmentStore indexed(/*summary_pruning=*/false);
  // Mostly-parallel population: long waits at distinct positions.
  for (int i = 0; i < 200; ++i) {
    const std::int64_t pos = rng.UniformInt(0, 60);
    const TimeStep t0 = rng.UniformInt(0, 30);
    Segment seg({t0, pos}, {t0 + 10, pos});
    naive.Insert(seg);
    indexed.Insert(seg);
  }
  naive.ResetStats();
  indexed.ResetStats();
  for (int probe = 0; probe < 100; ++probe) {
    const std::int64_t pos = rng.UniformInt(0, 60);
    Segment candidate({15, pos}, {25, pos});
    naive.EarliestCollisionTime(candidate);
    indexed.EarliestCollisionTime(candidate);
  }
  EXPECT_LT(indexed.stats().candidates_examined,
            naive.stats().candidates_examined / 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreEquivalenceTest,
                         ::testing::Range(0, 8));

// The hand-rolled integer kernel used in the scan loops must agree with
// the reference geometry::FindCollision on every random pair.
class PackedKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(PackedKernelTest, MatchesReferencePredicate) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 9);
  for (int iter = 0; iter < 3000; ++iter) {
    const Segment a = RandomSegment(rng);
    const Segment b = RandomSegment(rng);
    const auto packed = internal_store::PackedSegment::Pack(a);
    const TimeStep expected = geometry::CollisionTime(b, a);
    const TimeStep actual = internal_store::PackedCollisionTime(
        packed, b.start().t, b.start().pos, b.finish().t, b.finish().pos);
    EXPECT_EQ(expected, actual) << "a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedKernelTest, ::testing::Range(0, 6));

// The indexed store's O(log n) OccupiedAt override must agree with the
// generic point-probe implementation.
TEST(IndexedSegmentStoreTest, OccupiedAtMatchesGenericProbe) {
  Rng rng(515);
  IndexedSegmentStore indexed;
  NaiveSegmentStore naive;
  for (int i = 0; i < 400; ++i) {
    const Segment seg = RandomSegment(rng);
    indexed.Insert(seg);
    naive.Insert(seg);
  }
  for (int probe = 0; probe < 3000; ++probe) {
    const std::int64_t pos = rng.UniformInt(0, 16);
    const TimeStep t = rng.UniformInt(0, 55);
    EXPECT_EQ(indexed.OccupiedAt(pos, t), naive.OccupiedAt(pos, t))
        << "pos=" << pos << " t=" << t;
  }
}

TEST(IndexedSegmentStoreTest, OccupiedAtAfterRemovals) {
  Rng rng(616);
  IndexedSegmentStore indexed;
  NaiveSegmentStore naive;
  std::vector<Segment> segs;
  for (int i = 0; i < 200; ++i) {
    const Segment seg = RandomSegment(rng);
    indexed.Insert(seg);
    naive.Insert(seg);
    segs.push_back(seg);
  }
  for (std::size_t i = 0; i < segs.size(); i += 3) {
    indexed.Remove(segs[i]);
    naive.Remove(segs[i]);
  }
  for (int probe = 0; probe < 1500; ++probe) {
    const std::int64_t pos = rng.UniformInt(0, 16);
    const TimeStep t = rng.UniformInt(0, 55);
    EXPECT_EQ(indexed.OccupiedAt(pos, t), naive.OccupiedAt(pos, t));
  }
}

TEST(IndexedSegmentStoreTest, MaxBucketSizeSmallForDiagonalTraffic) {
  // The paper's remark: rotation makes the same-key mapping almost
  // one-to-one for moving segments.
  IndexedSegmentStore store;
  for (int i = 0; i < 100; ++i) {
    store.Insert(Segment({i * 3, 0}, {i * 3 + 8, 8}));
  }
  // All on distinct lines (distinct keys) -> buckets of size... every
  // segment here has key -t0, all distinct.
  EXPECT_EQ(store.MaxBucketSize(), 1u);
}

TEST_P(SegmentStoreTest, PruneCompactsWithoutShrinkingCapacity) {
  // An epoch prune sweep compacts eagerly but keeps capacity: the store
  // refills to a similar working set before the next sweep, so a shrink
  // there would only force a realloc cycle (counter-verified).
  for (int i = 0; i < 4096; ++i) {
    store_->Insert(Segment({4 * i, 0}, {4 * i + 4, 4}));
  }
  const std::size_t peak_bytes = store_->RetainedBytes();
  EXPECT_EQ(store_->PruneBefore(kInfiniteTime), 4096u);
  const auto s = store_->stats();
  EXPECT_EQ(s.pruned, 4096);
  EXPECT_GT(s.compactions, 0);
  EXPECT_EQ(s.shrinks, 0);
  EXPECT_EQ(store_->size(), 0u);
  // Capacity survives for the refill (tombstone flag bytes may be freed by
  // a vector implementation's resize, so compare against the items' share).
  EXPECT_GE(store_->RetainedBytes(), peak_bytes / 2);
}

TEST_P(SegmentStoreTest, ThresholdCompactionShrinksAndCountsIt) {
  // Removal-driven (threshold) compactions DO return capacity once the
  // live set falls well under it.
  std::vector<Segment> segs;
  for (int i = 0; i < 4096; ++i) {
    segs.push_back(Segment({4 * i, 0}, {4 * i + 4, 4}));
    store_->Insert(segs.back());
  }
  const std::size_t peak_bytes = store_->RetainedBytes();
  for (const Segment& seg : segs) EXPECT_TRUE(store_->Remove(seg));
  const auto s = store_->stats();
  EXPECT_EQ(s.erases, 4096);
  EXPECT_GT(s.compactions, 0);
  EXPECT_GT(s.shrinks, 0);
  EXPECT_LT(store_->RetainedBytes(), peak_bytes / 2);
}

// ---------------------------------------------------------------------
// Block summaries (DESIGN.md §2f): the per-block aggregates must stay
// exact under every structural edit, and the two-level kernel they feed
// must be an accelerator, not a relaxation.
// ---------------------------------------------------------------------

TEST_P(SegmentStoreTest, SummariesStayExactUnderInterleavedOps) {
  // Interleaved insert / remove / prune across several compaction cycles;
  // CheckInvariants() recomputes every block summary from the slots and
  // compares field-by-field, so any stale aggregate fails here.
  Rng rng(4242);
  std::vector<Segment> live;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 37; ++i) {
      const Segment seg = RandomSegment(rng);
      store_->Insert(seg);
      live.push_back(seg);
    }
    for (int i = 0; i < 11 && !live.empty(); ++i) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      EXPECT_TRUE(store_->Remove(live[pick]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (round % 7 == 6) {
      const TimeStep cut = rng.UniformInt(0, 30);
      store_->PruneBefore(cut);
      std::erase_if(live, [cut](const Segment& s) {
        return s.finish().t < cut;
      });
    }
    ASSERT_EQ(store_->CheckInvariants(), "") << "round " << round;
  }
  EXPECT_EQ(store_->size(), live.size());
}

TEST_P(SegmentStoreTest, SummaryPruningPreservesAnswersAndCutsWork) {
  // The same population behind a pruning store and a flat-scan store must
  // give bit-identical answers on every probe, with the pruning store
  // evaluating strictly fewer pairwise predicates.
  auto flat = GetParam() == StoreKind::kNaive
                  ? std::unique_ptr<SegmentStore>(
                        std::make_unique<NaiveSegmentStore>(
                            /*summary_pruning=*/false))
                  : std::unique_ptr<SegmentStore>(
                        std::make_unique<IndexedSegmentStore>(
                            /*summary_pruning=*/false));
  Rng rng(987);
  for (int i = 0; i < 600; ++i) {
    const Segment seg = RandomSegment(rng);
    store_->Insert(seg);
    flat->Insert(seg);
  }
  store_->ResetStats();
  flat->ResetStats();
  for (int probe = 0; probe < 400; ++probe) {
    const Segment candidate = RandomSegment(rng);
    EXPECT_EQ(store_->EarliestCollisionTime(candidate),
              flat->EarliestCollisionTime(candidate))
        << "candidate=" << candidate;
  }
  const SegmentStoreStats pruned = store_->stats();
  const SegmentStoreStats exhaustive = flat->stats();
  EXPECT_LT(pruned.candidates_examined, exhaustive.candidates_examined);
  EXPECT_GT(pruned.blocks_skipped + pruned.candidates_pruned_by_summary, 0);
  EXPECT_EQ(exhaustive.blocks_skipped, 0);
  EXPECT_EQ(exhaustive.candidates_pruned_by_summary, 0);
}

TEST(NaiveSegmentStoreTest, CorruptedSummaryIsCaughtByInvariantAudit) {
  // Calibrates the kStaleSummary fault injection: one collapsed block
  // summary must trip CheckInvariants (the fuzzer audits it every op).
  NaiveSegmentStore store;
  for (int i = 0; i < 100; ++i) {
    store.Insert(Segment({i, 0}, {i + 4, 4}));
  }
  ASSERT_EQ(store.CheckInvariants(), "");
  ASSERT_TRUE(store.CorruptSummaryForTest());
  EXPECT_NE(store.CheckInvariants(), "");
}

TEST(NaiveSegmentStoreTest, OccupiedAtBinarySearchesProbeWindow) {
  // The generic point probe no longer walks the whole sequence: it binary
  // searches the reach-bounded window [t - max_duration, t], so a probe
  // against a time-spread population touches a handful of slots. Measured
  // on the flat store so the bound pins the window, not summary skips.
  NaiveSegmentStore store(/*summary_pruning=*/false);
  for (int i = 0; i < 1024; ++i) {
    store.Insert(Segment({4 * i, i % 16}, {4 * i + 4, i % 16}));
  }
  store.ResetStats();
  for (int probe = 0; probe < 100; ++probe) {
    store.OccupiedAt(probe % 16, 4 * (probe * 9 % 1024) + 2);
  }
  const SegmentStoreStats s = store.stats();
  // 100 probes over 1024 stored segments: the window holds ~2 segments
  // (duration 4, start spacing 4), far below one slot per stored segment.
  EXPECT_LE(s.candidates_examined, 100 * 4);
  EXPECT_GT(s.candidates_examined, 0);
}

TEST(IndexedSegmentStoreTest, ByLineChurnCountersPinned) {
  // Satellite check: the by-line sequence's tombstone / compaction /
  // shrink churn is reported separately AND folded into the aggregates.
  // 200 slope-0 segments removed in order trip the threshold (>=64
  // tombstones covering half the slots) at removals #100 and #164,
  // leaving 36 tombstones — in both sequences, which see identical edits.
  IndexedSegmentStore store;
  std::vector<Segment> segs;
  for (int i = 0; i < 200; ++i) {
    segs.push_back(Segment({4 * i, i % 8}, {4 * i + 4, i % 8}));
    store.Insert(segs.back());
  }
  for (const Segment& seg : segs) ASSERT_TRUE(store.Remove(seg));
  const SegmentStoreStats s = store.stats();
  EXPECT_EQ(s.by_line_tombstones, 36);
  EXPECT_EQ(s.by_line_compactions, 2);
  EXPECT_GE(s.by_line_shrinks, 1);
  // Aggregates include both the main and the by-line sequences.
  EXPECT_EQ(s.tombstones, 2 * s.by_line_tombstones);
  EXPECT_EQ(s.compactions, 2 * s.by_line_compactions);
  EXPECT_GE(s.shrinks, s.by_line_shrinks);
}

}  // namespace
}  // namespace carp::srp
