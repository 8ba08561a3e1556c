// The survivor-scan kernels (DESIGN.md §2g) must be interchangeable: the
// AVX2 lane kernel returns exactly the masks a slot-by-slot restatement of
// their semantics does, the stores answer identically under both kernels
// (including across tombstones and partial padded tails), and runtime
// dispatch (CPUID, CARP_FORCE_KERNEL, SrpPlannerOptions::kernel) lands on
// the kernel it promises.
#include "srp/collision_kernel.h"

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/kernel_dispatch.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "srp/segment_index.h"
#include "srp/segment_store.h"
#include "srp/srp_planner.h"

namespace carp::srp {
namespace {

namespace is = internal_store;
using core::CollisionKernel;

constexpr std::size_t kSlots = is::kKernelBlockSlots;
constexpr std::int32_t kI32Max = std::numeric_limits<std::int32_t>::max();
constexpr std::int32_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();

/// One hand-built 64-slot SoA block in the exact layout the kernels
/// consume: 64-byte-aligned columns, every slot explicitly set. Slots
/// default to the stores' never-match sentinel shape so a test only has to
/// place the slots it cares about.
struct TestBlock {
  alignas(64) std::int32_t t0[kSlots];
  alignas(64) std::int32_t p0[kSlots];
  alignas(64) std::int32_t t1[kSlots];
  alignas(64) std::int32_t p1[kSlots];
  alignas(64) std::int64_t key[kSlots];
  alignas(64) std::uint8_t dead[kSlots];

  TestBlock() {
    for (std::size_t i = 0; i < kSlots; ++i) {
      t0[i] = kI32Max;
      p0[i] = kI32Max;
      t1[i] = kI32Min;
      p1[i] = kI32Max;
      key[i] = kI64Max;
      dead[i] = 0;
    }
  }

  void Set(std::size_t i, std::int32_t a_t0, std::int32_t a_p0,
           std::int32_t a_t1, std::int32_t a_p1, bool is_dead = false) {
    t0[i] = a_t0;
    p0[i] = a_p0;
    t1[i] = a_t1;
    p1[i] = a_p1;
    dead[i] = is_dead ? 1 : 0;
  }

  void SetLine(std::size_t i, std::int64_t a_key, std::int32_t a_t0,
               std::int32_t a_t1, bool is_dead = false) {
    key[i] = a_key;
    t0[i] = a_t0;
    t1[i] = a_t1;
    dead[i] = is_dead ? 1 : 0;
  }
};

/// Slot-by-slot re-statement of the documented survivor semantics,
/// independent of the mask-parallel implementations it checks.
is::SurvivorMasks ReferenceSurvivors(const TestBlock& b,
                                     const is::SegmentProbe& probe) {
  is::SurvivorMasks m;
  for (std::size_t i = 0; i < kSlots; ++i) {
    if (b.dead[i] != 0) continue;
    if (b.t0[i] > probe.ct1 || b.t1[i] < probe.ct0) continue;
    m.time |= std::uint64_t{1} << i;
    const std::int32_t pmin = std::min(b.p0[i], b.p1[i]);
    const std::int32_t pmax = std::max(b.p0[i], b.p1[i]);
    if (pmax < probe.min_pos || pmin > probe.max_pos) continue;
    const int s = (b.p1[i] > b.p0[i]) - (b.p1[i] < b.p0[i]);
    const std::int64_t key = std::int64_t{b.p0[i]} -
                             std::int64_t{s} * std::int64_t{b.t0[i]};
    if (key < probe.klo[s + 1] || key > probe.khi[s + 1]) continue;
    m.survivors |= std::uint64_t{1} << i;
  }
  return m;
}

class KernelMaskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A mix the prefilters have to disagree about: all three slopes, dead
    // slots, boundary-touching spans, and untouched sentinel tails.
    block_.Set(0, 0, 5, 10, 15);                  // slope +1
    block_.Set(1, 2, 20, 9, 13);                  // slope -1
    block_.Set(2, 4, 7, 12, 7);                   // wait (slope 0)
    block_.Set(3, 0, 5, 10, 15, /*is_dead=*/true);  // dead twin of slot 0
    block_.Set(17, 100, 3, 130, 33);              // far future
    block_.Set(31, 6, 0, 6, 0);                   // zero-duration point
    block_.Set(32, 0, 40, 40, 0);                 // long diagonal down
    block_.Set(63, 10, 10, 10, 10);               // last real slot
    for (std::size_t i = 0; i < kSlots; ++i) {
      block_.SetLine(i, kI64Max, block_.t0[i], block_.t1[i],
                     block_.dead[i] != 0);
    }
    block_.SetLine(5, 42, 1, 9);
    block_.SetLine(6, 42, 4, 6, /*is_dead=*/true);
    block_.SetLine(7, 42, 12, 20);
    block_.SetLine(8, 77, 0, 100);
  }

  TestBlock block_;
};

TEST_F(KernelMaskTest, SurvivorMasksMatchReferenceAndEachOther) {
  if (!core::CpuSupportsAvx2()) GTEST_SKIP() << "host lacks AVX2";
  const std::int64_t klo[3] = {-50, -50, -50};
  const std::int64_t khi[3] = {50, 50, 50};
  for (const auto& window : std::vector<std::pair<int, int>>{
           {0, 12}, {5, 6}, {11, 200}, {0, 0}, {39, 41}}) {
    is::SegmentProbe probe;
    ASSERT_TRUE(is::BuildSegmentProbe(window.first, 0, window.second, 20,
                                      klo, khi, &probe));
    const is::SurvivorMasks want = ReferenceSurvivors(block_, probe);
    const is::SurvivorMasks avx2 = is::SegmentSurvivorsAvx2(
        block_.t0, block_.p0, block_.t1, block_.p1, block_.dead, probe);
    EXPECT_EQ(avx2.time, want.time) << "window " << window.first;
    EXPECT_EQ(avx2.survivors, want.survivors) << "window " << window.first;
    // Survivors pass strictly more prefilters than the time set.
    EXPECT_EQ(avx2.survivors & ~avx2.time, 0u);
  }
}

TEST_F(KernelMaskTest, OccupancyMasksAgree) {
  if (!core::CpuSupportsAvx2()) GTEST_SKIP() << "host lacks AVX2";
  for (std::int32_t t = 0; t <= 14; ++t) {
    for (std::int32_t pos : {0, 5, 7, 10, 15, 20}) {
      is::OccupancyMasks want;
      for (std::size_t i = 0; i < kSlots; ++i) {
        if (block_.dead[i] != 0) continue;
        if (block_.t0[i] > t || block_.t1[i] < t) continue;
        want.covering |= std::uint64_t{1} << i;
        const int s = (block_.p1[i] > block_.p0[i]) -
                      (block_.p1[i] < block_.p0[i]);
        const std::int64_t at =
            std::int64_t{block_.p0[i]} + s * (std::int64_t{t} - block_.t0[i]);
        if (at == pos) want.hits |= std::uint64_t{1} << i;
      }
      const is::OccupancyMasks avx2 = is::SegmentOccupancyAvx2(
          block_.t0, block_.p0, block_.t1, block_.p1, block_.dead, t, pos);
      EXPECT_EQ(avx2.covering, want.covering) << "t=" << t << " p=" << pos;
      EXPECT_EQ(avx2.hits, want.hits) << "t=" << t << " p=" << pos;
    }
  }
}

TEST_F(KernelMaskTest, LineMasksAgree) {
  if (!core::CpuSupportsAvx2()) GTEST_SKIP() << "host lacks AVX2";
  for (const std::int64_t probe_key : {std::int64_t{42}, std::int64_t{77},
                                       std::int64_t{1}, kI64Max}) {
    is::LineForwardMasks fwant;
    is::LineCoverMasks cwant;
    for (std::size_t i = 0; i < kSlots; ++i) {
      const std::uint64_t bit = std::uint64_t{1} << i;
      const bool live = block_.dead[i] == 0;
      const bool on_line = block_.key[i] == probe_key;
      if (live && on_line && block_.t0[i] <= 10 && block_.t1[i] >= 5) {
        fwant.hits |= bit;
      }
      if (block_.key[i] > probe_key || block_.t0[i] > 10) fwant.stops |= bit;
      if (live && on_line && block_.t0[i] <= 8 && block_.t1[i] >= 8) {
        cwant.hits |= bit;
      }
      if (block_.key[i] < probe_key) cwant.key_below |= bit;
      if (block_.t0[i] < 2) cwant.below_reach |= bit;
    }
    const is::LineForwardMasks fa = is::LineForwardAvx2(
        block_.key, block_.t0, block_.t1, block_.dead, probe_key, 5, 10);
    EXPECT_EQ(fa.hits, fwant.hits) << "key " << probe_key;
    EXPECT_EQ(fa.stops, fwant.stops) << "key " << probe_key;
    // The key sentinel must read as a forward stop at the logical end.
    if (probe_key != kI64Max) {
      EXPECT_NE(fa.stops & (std::uint64_t{1} << 60), 0u);
    }
    const is::LineCoverMasks ca = is::LineCoverAvx2(
        block_.key, block_.t0, block_.t1, block_.dead, probe_key, 8, 2);
    EXPECT_EQ(ca.hits, cwant.hits) << "key " << probe_key;
    EXPECT_EQ(ca.key_below, cwant.key_below) << "key " << probe_key;
    EXPECT_EQ(ca.below_reach, cwant.below_reach) << "key " << probe_key;
  }
}

// ---------------------------------------------------------------------------
// Store-level sweep: every population from empty through several blocks,
// with tombstones and partial padded tails, must answer identically under
// every kernel — and with identical examined counters (the lane paths are
// counter-exact by design, which is what makes the per-block gating safe).

struct SweepCase {
  bool indexed;
  CollisionKernel kernel;
};

std::string SweepName(const ::testing::TestParamInfo<SweepCase>& info) {
  return std::string(info.param.indexed ? "indexed" : "naive") + "_" +
         core::ToString(info.param.kernel);
}

geometry::Segment RandomStripSegment(Rng& rng) {
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
  return geometry::Segment({t0, p0}, {t0 + dur, p0 + slope * dur});
}

std::unique_ptr<SegmentStore> MakeSweepStore(const SweepCase& c) {
  if (c.indexed) {
    return std::make_unique<IndexedSegmentStore>(/*summary_pruning=*/true,
                                                 c.kernel);
  }
  return std::make_unique<NaiveSegmentStore>(/*summary_pruning=*/true,
                                             c.kernel);
}

class KernelSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(KernelSweepTest, PopulationsAnswerLikeFlatOracle) {
  const SweepCase c = GetParam();
  // Every population 0..64 walks the first block through all partial-tail
  // shapes; the sparser larger sizes cover engaged lanes over multi-block
  // stores whose last block is partial or exactly full.
  std::vector<std::size_t> populations;
  for (std::size_t n = 0; n <= 64; ++n) populations.push_back(n);
  for (std::size_t n : {65u, 77u, 96u, 127u, 128u, 129u, 160u}) {
    populations.push_back(n);
  }
  for (const std::size_t n : populations) {
    Rng rng(1000 + n);
    auto store = MakeSweepStore(c);
    // The flat scalar scan with summaries off is the bit-exact oracle.
    NaiveSegmentStore oracle(/*summary_pruning=*/false,
                             CollisionKernel::kScalar);
    std::vector<geometry::Segment> committed;
    for (std::size_t i = 0; i < n; ++i) {
      const geometry::Segment seg = RandomStripSegment(rng);
      store->Insert(seg);
      oracle.Insert(seg);
      committed.push_back(seg);
    }
    // Riddle the population with tombstones (every 3rd committed segment)
    // so live runs are broken up inside blocks.
    for (std::size_t i = 0; i < committed.size(); i += 3) {
      ASSERT_TRUE(store->Remove(committed[i]));
      ASSERT_TRUE(oracle.Remove(committed[i]));
    }
    for (int q = 0; q < 48; ++q) {
      const geometry::Segment probe = RandomStripSegment(rng);
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

TEST_P(KernelSweepTest, ExaminedCountersMatchScalarKernel) {
  const SweepCase c = GetParam();
  for (const std::size_t n : {48u, 64u, 100u, 160u}) {
    Rng rng(7000 + n);
    auto store = MakeSweepStore(c);
    auto scalar = MakeSweepStore({c.indexed, CollisionKernel::kScalar});
    std::vector<geometry::Segment> committed;
    for (std::size_t i = 0; i < n; ++i) {
      const geometry::Segment seg = RandomStripSegment(rng);
      store->Insert(seg);
      scalar->Insert(seg);
      committed.push_back(seg);
    }
    for (std::size_t i = 0; i < committed.size(); i += 4) {
      ASSERT_TRUE(store->Remove(committed[i]));
      ASSERT_TRUE(scalar->Remove(committed[i]));
    }
    store->ResetStats();
    scalar->ResetStats();
    for (int q = 0; q < 64; ++q) {
      const geometry::Segment probe = RandomStripSegment(rng);
      EXPECT_EQ(store->EarliestCollisionTime(probe),
                scalar->EarliestCollisionTime(probe));
      const std::int64_t pos = rng.UniformInt(0, 48);
      const TimeStep t = rng.UniformInt(0, 280);
      EXPECT_EQ(store->OccupiedAt(pos, t), scalar->OccupiedAt(pos, t));
    }
    const SegmentStoreStats got = store->stats();
    const SegmentStoreStats want = scalar->stats();
    EXPECT_EQ(got.candidates_examined, want.candidates_examined) << "n=" << n;
    EXPECT_EQ(got.blocks_scanned, want.blocks_scanned) << "n=" << n;
    EXPECT_EQ(got.blocks_skipped, want.blocks_skipped) << "n=" << n;
    EXPECT_EQ(got.candidates_pruned_by_summary,
              want.candidates_pruned_by_summary)
        << "n=" << n;
    // Lane counters are lane-only diagnostics: zero for the scalar kernel,
    // and survivors never exceed the lanes that produced them.
    EXPECT_EQ(want.lanes_processed, 0);
    EXPECT_LE(got.lanes_survived, got.lanes_processed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelSweepTest,
    ::testing::Values(SweepCase{false, CollisionKernel::kScalar},
                      SweepCase{false, CollisionKernel::kAvx2},
                      SweepCase{true, CollisionKernel::kScalar},
                      SweepCase{true, CollisionKernel::kAvx2}),
    SweepName);

// ---------------------------------------------------------------------------
// Dispatch: construction-time resolution honours CPUID, the environment
// override, and the planner option, and the resolved choice is visible in
// the stats labels end-to-end.

class KernelDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override { unsetenv("CARP_FORCE_KERNEL"); }
  void TearDown() override { unsetenv("CARP_FORCE_KERNEL"); }
};

TEST_F(KernelDispatchTest, ResolveNeverReturnsAuto) {
  for (const CollisionKernel k :
       {CollisionKernel::kScalar, CollisionKernel::kAvx2,
        CollisionKernel::kAuto}) {
    EXPECT_NE(core::ResolveCollisionKernel(k), CollisionKernel::kAuto);
  }
}

TEST_F(KernelDispatchTest, AutoFollowsCpuid) {
  const CollisionKernel resolved =
      core::ResolveCollisionKernel(CollisionKernel::kAuto);
  if (core::CpuSupportsAvx2()) {
    EXPECT_EQ(resolved, CollisionKernel::kAvx2);
  } else {
    EXPECT_EQ(resolved, CollisionKernel::kScalar);
  }
  NaiveSegmentStore store;  // default kAuto
  EXPECT_EQ(store.kernel(), resolved);
  IndexedSegmentStore indexed;
  EXPECT_EQ(indexed.kernel(), resolved);
}

TEST_F(KernelDispatchTest, ExplicitAvx2DegradesWithoutCpuSupport) {
  const CollisionKernel resolved =
      core::ResolveCollisionKernel(CollisionKernel::kAvx2);
  EXPECT_EQ(resolved, core::CpuSupportsAvx2() ? CollisionKernel::kAvx2
                                              : CollisionKernel::kScalar);
}

TEST_F(KernelDispatchTest, ForceKernelOverridesRequestAtConstruction) {
  setenv("CARP_FORCE_KERNEL", "scalar", 1);
  NaiveSegmentStore store(/*summary_pruning=*/true, CollisionKernel::kAvx2);
  EXPECT_EQ(store.kernel(), CollisionKernel::kScalar);
  IndexedSegmentStore indexed(/*summary_pruning=*/true,
                              CollisionKernel::kAuto);
  EXPECT_EQ(indexed.kernel(), CollisionKernel::kScalar);
  // An invalid spelling is ignored, not fatal.
  setenv("CARP_FORCE_KERNEL", "simd512", 1);
  NaiveSegmentStore fallback(/*summary_pruning=*/true,
                             CollisionKernel::kScalar);
  EXPECT_EQ(fallback.kernel(), CollisionKernel::kScalar);
}

TEST_F(KernelDispatchTest, RetiredKernelSpellingIsWarnedAndIgnored) {
  // "batched" named a kernel that no longer exists; a stale CI variable or
  // shell profile must degrade to the CPUID default, never crash or pin.
  const CollisionKernel cpuid = core::CpuSupportsAvx2()
                                    ? CollisionKernel::kAvx2
                                    : CollisionKernel::kScalar;
  setenv("CARP_FORCE_KERNEL", "batched", 1);
  ::testing::internal::CaptureStderr();
  const CollisionKernel resolved =
      core::ResolveCollisionKernel(CollisionKernel::kAuto);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(resolved, cpuid);
  EXPECT_NE(log.find("CARP_FORCE_KERNEL=batched"), std::string::npos) << log;
  EXPECT_NE(log.find("ignoring"), std::string::npos) << log;
  IndexedSegmentStore store;  // default kAuto
  EXPECT_EQ(store.kernel(), cpuid);
}

TEST_F(KernelDispatchTest, PlannerOptionReachesStoresAndStats) {
  const layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetTiny());
  SrpPlannerOptions options;
  options.kernel = CollisionKernel::kScalar;
  SrpPlanner planner(warehouse.matrix, options);
  auto route = planner.PlanRoute(0, GridCoord{0, 0}, GridCoord{0, 20});
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(planner.stats().collision_kernel, CollisionKernel::kScalar);
}

}  // namespace
}  // namespace carp::srp
