#include "core/kernel_dispatch.h"

#include <cstdlib>

#include "common/logging.h"

namespace carp::core {

namespace {

/// One line, first resolution only: which kernel this process runs and what
/// decided it. Later resolutions (tests build many stores) stay silent.
void LogChoiceOnce(CollisionKernel chosen, const char* why) {
  static bool logged = false;
  if (logged) return;
  logged = true;
  CARP_LOG(kInfo) << "collision kernel: " << ToString(chosen) << " (" << why
                  << ")";
}

}  // namespace

const char* ToString(CollisionKernel kernel) {
  switch (kernel) {
    case CollisionKernel::kScalar:
      return "scalar";
    case CollisionKernel::kAvx2:
      return "avx2";
    case CollisionKernel::kAuto:
      return "auto";
  }
  return "scalar";
}

bool ParseCollisionKernel(const std::string& text, CollisionKernel* out) {
  if (text == "scalar") {
    *out = CollisionKernel::kScalar;
  } else if (text == "avx2") {
    *out = CollisionKernel::kAvx2;
  } else if (text == "auto") {
    *out = CollisionKernel::kAuto;
  } else {
    return false;
  }
  return true;
}

bool CpuSupportsAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

CollisionKernel ResolveCollisionKernel(CollisionKernel requested) {
  // Read the environment on every call (construction-time only, never on a
  // query path) so tests can setenv/unsetenv around store construction.
  CollisionKernel chosen = requested;
  const char* why = "requested";
  if (const char* forced = std::getenv("CARP_FORCE_KERNEL");
      forced != nullptr && forced[0] != '\0') {
    CollisionKernel parsed;
    if (ParseCollisionKernel(forced, &parsed)) {
      chosen = parsed;
      why = "forced via CARP_FORCE_KERNEL";
    } else {
      CARP_LOG(kWarning) << "CARP_FORCE_KERNEL=" << forced
                         << " is not a kernel name; ignoring";
    }
  }
  if (chosen == CollisionKernel::kAuto) {
    chosen = CpuSupportsAvx2() ? CollisionKernel::kAvx2
                               : CollisionKernel::kScalar;
    why = CpuSupportsAvx2() ? "auto-selected via cpuid"
                            : "auto: host lacks avx2";
  } else if (chosen == CollisionKernel::kAvx2 && !CpuSupportsAvx2()) {
    CARP_LOG(kWarning)
        << "avx2 collision kernel requested but the host lacks AVX2;"
        << " falling back to scalar";
    chosen = CollisionKernel::kScalar;
    why = "avx2 unavailable, scalar fallback";
  }
  LogChoiceOnce(chosen, why);
  return chosen;
}

}  // namespace carp::core
