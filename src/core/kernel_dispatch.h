#ifndef CARP_CORE_KERNEL_DISPATCH_H_
#define CARP_CORE_KERNEL_DISPATCH_H_

namespace carp::core {

// Always scalar: the segment stores run one survivor scan (DESIGN.md §2f).
// Kept, with PlannerStats::collision_kernel, only because the frozen
// daybench/ sources read them; deleted with the next benchmark change.
enum class CollisionKernel : int {
  kScalar = 0,
  kAuto = 2,
};

/// Lower-case spelling ("scalar", "auto").
inline const char* ToString(CollisionKernel kernel) {
  return kernel == CollisionKernel::kAuto ? "auto" : "scalar";
}

/// Always kScalar.
inline CollisionKernel ResolveCollisionKernel(CollisionKernel /*requested*/) {
  return CollisionKernel::kScalar;
}

}  // namespace carp::core

#endif  // CARP_CORE_KERNEL_DISPATCH_H_
