#include "srp/collision_kernel.h"

#include <cstddef>

#include "common/logging.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define CARP_KERNEL_COMPILES_AVX2 1
#include <immintrin.h>
#else
#define CARP_KERNEL_COMPILES_AVX2 0
#endif

namespace carp::srp::internal_store {

bool BuildSegmentProbe(std::int64_t ct0, std::int64_t cp0, std::int64_t ct1,
                       std::int64_t cp1, const std::int64_t klo[3],
                       const std::int64_t khi[3], SegmentProbe* out) {
  const std::int64_t min_pos = cp0 < cp1 ? cp0 : cp1;
  const std::int64_t max_pos = cp0 < cp1 ? cp1 : cp0;
  bool ok = NarrowToI32(ct0, &out->ct0) && NarrowToI32(ct1, &out->ct1) &&
            NarrowToI32(min_pos, &out->min_pos) &&
            NarrowToI32(max_pos, &out->max_pos);
  for (int s = 0; s < 3 && ok; ++s) {
    ok = NarrowToI32(klo[s], &out->klo[s]) && NarrowToI32(khi[s], &out->khi[s]);
  }
  return ok;
}

#if CARP_KERNEL_COMPILES_AVX2

#define CARP_AVX2_FN __attribute__((target("avx2")))

namespace {

constexpr std::size_t kSlots = kKernelBlockSlots;

/// 8 sign bits of an int32 compare-mask vector as bits [0, 8).
CARP_AVX2_FN inline std::uint32_t GroupBits(__m256i mask) {
  return static_cast<std::uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(mask)));
}

/// 4 sign bits of an int64 compare-mask vector as bits [0, 4).
CARP_AVX2_FN inline std::uint32_t GroupBits64(__m256i mask) {
  return static_cast<std::uint32_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(mask)));
}

CARP_AVX2_FN inline __m256i LoadBlock(const std::int32_t* p) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
}

CARP_AVX2_FN inline __m256i LoadKeys(const std::int64_t* p) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
}

CARP_AVX2_FN inline std::uint64_t LiveMaskAvx2(const std::uint8_t* dead) {
  if (dead == nullptr) return ~std::uint64_t{0};
  const __m256i zero = _mm256_setzero_si256();
  const __m256i d0 =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(dead));
  const __m256i d1 =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(dead + 32));
  const std::uint32_t m0 =
      static_cast<std::uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(d0, zero)));
  const std::uint32_t m1 =
      static_cast<std::uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(d1, zero)));
  return static_cast<std::uint64_t>(m0) |
         (static_cast<std::uint64_t>(m1) << 32);
}

CARP_AVX2_FN SurvivorMasks SegmentSurvivorsAvx2Impl(
    const std::int32_t* t0, const std::int32_t* p0, const std::int32_t* t1,
    const std::int32_t* p1, const std::uint8_t* dead,
    const SegmentProbe& probe) {
  const __m256i ct0 = _mm256_set1_epi32(probe.ct0);
  const __m256i ct1 = _mm256_set1_epi32(probe.ct1);
  const __m256i min_pos = _mm256_set1_epi32(probe.min_pos);
  const __m256i max_pos = _mm256_set1_epi32(probe.max_pos);
  const __m256i klo_dn = _mm256_set1_epi32(probe.klo[0]);
  const __m256i klo_fl = _mm256_set1_epi32(probe.klo[1]);
  const __m256i klo_up = _mm256_set1_epi32(probe.klo[2]);
  const __m256i khi_dn = _mm256_set1_epi32(probe.khi[0]);
  const __m256i khi_fl = _mm256_set1_epi32(probe.khi[1]);
  const __m256i khi_up = _mm256_set1_epi32(probe.khi[2]);
  const __m256i one = _mm256_set1_epi32(1);

  std::uint64_t time = 0;
  std::uint64_t surv = 0;
  for (std::size_t g = 0; g < kSlots / 8; ++g) {
    const __m256i vt0 = LoadBlock(t0 + 8 * g);
    const __m256i vp0 = LoadBlock(p0 + 8 * g);
    const __m256i vt1 = LoadBlock(t1 + 8 * g);
    const __m256i vp1 = LoadBlock(p1 + 8 * g);

    const __m256i time_bad = _mm256_or_si256(_mm256_cmpgt_epi32(vt0, ct1),
                                             _mm256_cmpgt_epi32(ct0, vt1));
    const __m256i pmax = _mm256_max_epi32(vp0, vp1);
    const __m256i pmin = _mm256_min_epi32(vp0, vp1);
    const __m256i ext_bad = _mm256_or_si256(_mm256_cmpgt_epi32(min_pos, pmax),
                                            _mm256_cmpgt_epi32(pmin, max_pos));
    // Slope as an arithmetic lane value and as blend masks; lanes whose
    // 32-bit key product would wrap never survive the extent/key tests for
    // in-domain probes (tail sentinels pin the slope to 0).
    const __m256i up = _mm256_cmpgt_epi32(vp1, vp0);
    const __m256i dn = _mm256_cmpgt_epi32(vp0, vp1);
    const __m256i slope = _mm256_sub_epi32(_mm256_and_si256(up, one),
                                           _mm256_and_si256(dn, one));
    const __m256i vkey = _mm256_sub_epi32(vp0, _mm256_mullo_epi32(slope, vt0));
    __m256i klo = _mm256_blendv_epi8(klo_fl, klo_up, up);
    klo = _mm256_blendv_epi8(klo, klo_dn, dn);
    __m256i khi = _mm256_blendv_epi8(khi_fl, khi_up, up);
    khi = _mm256_blendv_epi8(khi, khi_dn, dn);
    const __m256i key_bad = _mm256_or_si256(_mm256_cmpgt_epi32(klo, vkey),
                                            _mm256_cmpgt_epi32(vkey, khi));

    const std::uint32_t tb = ~GroupBits(time_bad) & 0xffu;
    const std::uint32_t sb =
        ~GroupBits(_mm256_or_si256(time_bad,
                                   _mm256_or_si256(ext_bad, key_bad))) &
        0xffu;
    time |= static_cast<std::uint64_t>(tb) << (8 * g);
    surv |= static_cast<std::uint64_t>(sb) << (8 * g);
  }
  const std::uint64_t live = LiveMaskAvx2(dead);
  return SurvivorMasks{time & live, surv & live};
}

CARP_AVX2_FN OccupancyMasks SegmentOccupancyAvx2Impl(
    const std::int32_t* t0, const std::int32_t* p0, const std::int32_t* t1,
    const std::int32_t* p1, const std::uint8_t* dead, std::int32_t t,
    std::int32_t pos) {
  const __m256i vt = _mm256_set1_epi32(t);
  const __m256i vpos = _mm256_set1_epi32(pos);
  const __m256i one = _mm256_set1_epi32(1);

  std::uint64_t covering = 0;
  std::uint64_t hits = 0;
  for (std::size_t g = 0; g < kSlots / 8; ++g) {
    const __m256i vt0 = LoadBlock(t0 + 8 * g);
    const __m256i vp0 = LoadBlock(p0 + 8 * g);
    const __m256i vt1 = LoadBlock(t1 + 8 * g);
    const __m256i vp1 = LoadBlock(p1 + 8 * g);

    const __m256i cover_bad = _mm256_or_si256(_mm256_cmpgt_epi32(vt0, vt),
                                              _mm256_cmpgt_epi32(vt, vt1));
    const __m256i up = _mm256_cmpgt_epi32(vp1, vp0);
    const __m256i dn = _mm256_cmpgt_epi32(vp0, vp1);
    const __m256i slope = _mm256_sub_epi32(_mm256_and_si256(up, one),
                                           _mm256_and_si256(dn, one));
    // pos at time t: p0 + slope * (t - t0). Lanes that fail the cover test
    // may wrap; they are masked out below, and covered lanes stay exact
    // because 0 <= t - t0 <= duration.
    const __m256i at = _mm256_add_epi32(
        vp0, _mm256_mullo_epi32(slope, _mm256_sub_epi32(vt, vt0)));
    const __m256i hit = _mm256_andnot_si256(cover_bad,
                                            _mm256_cmpeq_epi32(at, vpos));

    const std::uint32_t cb = ~GroupBits(cover_bad) & 0xffu;
    covering |= static_cast<std::uint64_t>(cb) << (8 * g);
    hits |= static_cast<std::uint64_t>(GroupBits(hit)) << (8 * g);
  }
  const std::uint64_t live = LiveMaskAvx2(dead);
  return OccupancyMasks{covering & live, hits & live};
}

CARP_AVX2_FN LineForwardMasks LineForwardAvx2Impl(
    const std::int64_t* key, const std::int32_t* t0, const std::int32_t* t1,
    const std::uint8_t* dead, std::int64_t probe_key, std::int32_t ct0,
    std::int32_t ct1) {
  const __m256i vkey = _mm256_set1_epi64x(probe_key);
  const __m256i vct0 = _mm256_set1_epi32(ct0);
  const __m256i vct1 = _mm256_set1_epi32(ct1);

  std::uint64_t hits = 0;
  std::uint64_t stops = 0;
  for (std::size_t g = 0; g < kSlots / 8; ++g) {
    const __m256i k0 = LoadKeys(key + 8 * g);
    const __m256i k1 = LoadKeys(key + 8 * g + 4);
    const std::uint32_t keq = GroupBits64(_mm256_cmpeq_epi64(k0, vkey)) |
                              (GroupBits64(_mm256_cmpeq_epi64(k1, vkey)) << 4);
    const std::uint32_t kgt = GroupBits64(_mm256_cmpgt_epi64(k0, vkey)) |
                              (GroupBits64(_mm256_cmpgt_epi64(k1, vkey)) << 4);

    const __m256i vt0 = LoadBlock(t0 + 8 * g);
    const __m256i vt1 = LoadBlock(t1 + 8 * g);
    const std::uint32_t t0gt = GroupBits(_mm256_cmpgt_epi32(vt0, vct1));
    const std::uint32_t t1ge = ~GroupBits(_mm256_cmpgt_epi32(vct0, vt1)) & 0xffu;
    const std::uint32_t t0le = ~t0gt & 0xffu;

    hits |= static_cast<std::uint64_t>(keq & t0le & t1ge) << (8 * g);
    stops |= static_cast<std::uint64_t>(kgt | t0gt) << (8 * g);
  }
  return LineForwardMasks{hits & LiveMaskAvx2(dead), stops};
}

CARP_AVX2_FN LineCoverMasks LineCoverAvx2Impl(
    const std::int64_t* key, const std::int32_t* t0, const std::int32_t* t1,
    const std::uint8_t* dead, std::int64_t probe_key, std::int32_t t,
    std::int32_t cutoff) {
  const __m256i vkey = _mm256_set1_epi64x(probe_key);
  const __m256i vt = _mm256_set1_epi32(t);
  const __m256i vcut = _mm256_set1_epi32(cutoff);

  std::uint64_t hits = 0;
  std::uint64_t key_below = 0;
  std::uint64_t below_reach = 0;
  for (std::size_t g = 0; g < kSlots / 8; ++g) {
    const __m256i k0 = LoadKeys(key + 8 * g);
    const __m256i k1 = LoadKeys(key + 8 * g + 4);
    const std::uint32_t keq = GroupBits64(_mm256_cmpeq_epi64(k0, vkey)) |
                              (GroupBits64(_mm256_cmpeq_epi64(k1, vkey)) << 4);
    const std::uint32_t klt = GroupBits64(_mm256_cmpgt_epi64(vkey, k0)) |
                              (GroupBits64(_mm256_cmpgt_epi64(vkey, k1)) << 4);

    const __m256i vt0 = LoadBlock(t0 + 8 * g);
    const __m256i vt1 = LoadBlock(t1 + 8 * g);
    const std::uint32_t t0le = ~GroupBits(_mm256_cmpgt_epi32(vt0, vt)) & 0xffu;
    const std::uint32_t t1ge = ~GroupBits(_mm256_cmpgt_epi32(vt, vt1)) & 0xffu;
    const std::uint32_t reach = GroupBits(_mm256_cmpgt_epi32(vcut, vt0));

    hits |= static_cast<std::uint64_t>(keq & t0le & t1ge) << (8 * g);
    key_below |= static_cast<std::uint64_t>(klt) << (8 * g);
    below_reach |= static_cast<std::uint64_t>(reach) << (8 * g);
  }
  return LineCoverMasks{hits & LiveMaskAvx2(dead), key_below, below_reach};
}

}  // namespace

SurvivorMasks SegmentSurvivorsAvx2(const std::int32_t* t0,
                                   const std::int32_t* p0,
                                   const std::int32_t* t1,
                                   const std::int32_t* p1,
                                   const std::uint8_t* dead,
                                   const SegmentProbe& probe) {
  return SegmentSurvivorsAvx2Impl(t0, p0, t1, p1, dead, probe);
}

OccupancyMasks SegmentOccupancyAvx2(const std::int32_t* t0,
                                    const std::int32_t* p0,
                                    const std::int32_t* t1,
                                    const std::int32_t* p1,
                                    const std::uint8_t* dead, std::int32_t t,
                                    std::int32_t pos) {
  return SegmentOccupancyAvx2Impl(t0, p0, t1, p1, dead, t, pos);
}

LineForwardMasks LineForwardAvx2(const std::int64_t* key,
                                 const std::int32_t* t0,
                                 const std::int32_t* t1,
                                 const std::uint8_t* dead,
                                 std::int64_t probe_key, std::int32_t ct0,
                                 std::int32_t ct1) {
  return LineForwardAvx2Impl(key, t0, t1, dead, probe_key, ct0, ct1);
}

LineCoverMasks LineCoverAvx2(const std::int64_t* key, const std::int32_t* t0,
                             const std::int32_t* t1, const std::uint8_t* dead,
                             std::int64_t probe_key, std::int32_t t,
                             std::int32_t cutoff) {
  return LineCoverAvx2Impl(key, t0, t1, dead, probe_key, t, cutoff);
}

#else  // !CARP_KERNEL_COMPILES_AVX2

// Builds that cannot compile the intrinsics never select kAvx2 at runtime
// (CpuSupportsAvx2 is false there), so reaching any of these is a
// dispatch bug.

SurvivorMasks SegmentSurvivorsAvx2(const std::int32_t*, const std::int32_t*,
                                   const std::int32_t*, const std::int32_t*,
                                   const std::uint8_t*, const SegmentProbe&) {
  CARP_CHECK(false) << "AVX2 kernel called on a build without AVX2";
  return {};
}

OccupancyMasks SegmentOccupancyAvx2(const std::int32_t*, const std::int32_t*,
                                    const std::int32_t*, const std::int32_t*,
                                    const std::uint8_t*, std::int32_t,
                                    std::int32_t) {
  CARP_CHECK(false) << "AVX2 kernel called on a build without AVX2";
  return {};
}

LineForwardMasks LineForwardAvx2(const std::int64_t*, const std::int32_t*,
                                 const std::int32_t*, const std::uint8_t*,
                                 std::int64_t, std::int32_t, std::int32_t) {
  CARP_CHECK(false) << "AVX2 kernel called on a build without AVX2";
  return {};
}

LineCoverMasks LineCoverAvx2(const std::int64_t*, const std::int32_t*,
                             const std::int32_t*, const std::uint8_t*,
                             std::int64_t, std::int32_t, std::int32_t) {
  CARP_CHECK(false) << "AVX2 kernel called on a build without AVX2";
  return {};
}

#endif  // CARP_KERNEL_COMPILES_AVX2

}  // namespace carp::srp::internal_store
