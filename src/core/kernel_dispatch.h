#ifndef CARP_CORE_KERNEL_DISPATCH_H_
#define CARP_CORE_KERNEL_DISPATCH_H_

#include <string>

namespace carp::core {

/// Which implementation of the per-block survivor scan the segment stores
/// run (DESIGN.md §2g). The two concrete kernels answer identically —
/// same earliest-collision times, same survivor masks, same counters — so
/// the choice is purely a throughput knob:
///   * kScalar: the portable slot-at-a-time loop (the oracle, and the only
///     kernel on hosts without AVX2);
///   * kAvx2:   hand-written AVX2 intrinsics, 8 lanes (4 for the 64-bit
///     line keys) at a time.
/// kAuto resolves at store construction via CPUID: AVX2 when the host has
/// it, the scalar loop otherwise.
enum class CollisionKernel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAuto = 2,
};

/// Lower-case flag spelling ("scalar", "avx2", "auto").
const char* ToString(CollisionKernel kernel);

/// Parses the flag spelling; false (out untouched) on anything else.
bool ParseCollisionKernel(const std::string& text, CollisionKernel* out);

/// True when the running CPU (not just the compiler target) executes AVX2.
bool CpuSupportsAvx2();

/// Maps a requested kernel to the one a store should actually run:
///   * the CARP_FORCE_KERNEL environment variable, when set to a valid
///     spelling, overrides any request (the CI escape hatch); any other
///     value — including a retired kernel name — is warned about and
///     ignored;
///   * kAuto picks AVX2 iff the host supports it;
///   * an explicit kAvx2 request degrades to kScalar (with a warning) on
///     hosts without AVX2, so a stale flag can never crash a binary.
/// Never returns kAuto. The first resolution in a process logs its choice
/// and why, so runs record which kernel produced their numbers.
CollisionKernel ResolveCollisionKernel(CollisionKernel requested);

}  // namespace carp::core

#endif  // CARP_CORE_KERNEL_DISPATCH_H_
