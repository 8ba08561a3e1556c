#ifndef CARP_CORE_BATCH_PLANNER_H_
#define CARP_CORE_BATCH_PLANNER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"
#include "core/planner.h"

namespace carp::core {

/// One origin-destination pair of a batch (Def. 3's Q_t).
struct BatchQuery {
  GridCoord origin;
  GridCoord destination;
};

/// Order in which a batch is fed to the (sequential, priority-style)
/// planner. Ordering is the classic prioritised-planning lever: robots
/// planned earlier constrain those planned later.
enum class BatchOrder : std::uint8_t {
  kAsGiven = 0,
  /// Shortest Manhattan distance first: short hops get direct routes;
  /// long hauls route around them.
  kShortestFirst = 1,
  /// Longest first: long hauls get direct routes; short hops wait.
  kLongestFirst = 2,
};

const char* ToString(BatchOrder order);

/// Execution knobs of PlanBatch.
struct BatchPlanOptions {
  BatchOrder order = BatchOrder::kAsGiven;

  /// Worker threads of the speculative query phase. `threads <= 1`, a
  /// planner without SupportsSpeculation(), or a batch smaller than one
  /// wave (see `wave_size`) runs the classic serial prioritized loop on the
  /// calling thread, bit-for-bit identical to PlanBatch's historical
  /// behaviour. Otherwise each wave's queries are planned concurrently
  /// against a frozen snapshot of the committed state and then validated
  /// and committed sequentially in priority order; routes invalidated by
  /// an earlier commit are re-planned serially. The final route set is
  /// deterministic for a fixed priority order and wave size — independent
  /// of thread count and scheduling.
  int threads = 1;

  /// Optional externally owned pool to run the query phase on (reused
  /// across batches). When null a transient pool of `threads` workers is
  /// created per call. When set, the pool's size caps the parallelism and
  /// `threads` only gates whether the speculative path is taken.
  ThreadPool* pool = nullptr;

  /// Queries speculated per commit round (the speculative path processes
  /// the batch in priority-order waves: speculate a wave concurrently,
  /// validate-then-commit it, move on). Small waves keep the invalidation
  /// rate low — a route only has to survive the <= wave_size - 1 routes
  /// speculated alongside it, not the whole batch. 0 = auto
  /// (max(16, 4 * workers), workers = the pool's size or `threads`).
  /// A batch of fewer than `wave_size` queries is not speculated at all:
  /// it plans serially on the calling thread, where a partial wave is
  /// cheaper than the pool hand-off. Set it explicitly (e.g. 2) to
  /// speculate small batches.
  int wave_size = 0;
};

struct BatchResult {
  /// Routes in the ORIGINAL query order (nullopt = unroutable).
  std::vector<std::optional<Route>> routes;

  std::int64_t planned = 0;
  std::int64_t failed = 0;

  /// Eq. (1)'s makespan term over the batch: max st_r + |G_r|.
  TimeStep makespan = 0;

  /// Speculative routes produced by the parallel query phase (0 on the
  /// serial path).
  std::int64_t speculated = 0;

  /// Speculative routes invalidated by an earlier robot's commit and
  /// re-planned serially.
  std::int64_t invalidated = 0;

  /// Fraction of speculative routes the commit pass had to re-plan.
  double ConflictRate() const {
    return speculated == 0
               ? 0.0
               : static_cast<double>(invalidated) /
                     static_cast<double>(speculated);
  }
};

/// Plans a whole Q_t set emerging at time `t` through `planner`, in the
/// given priority order. The paper's setting is a stream of such sets;
/// this facade adapts any online Planner to the set-based formulation and
/// lets benchmarks ablate ordering.
BatchResult PlanBatch(Planner& planner, TimeStep t,
                      const std::vector<BatchQuery>& queries,
                      BatchOrder order = BatchOrder::kAsGiven);

/// As above with execution options. With `options.threads > 1`, a
/// speculation-capable planner and a batch that fills at least one wave,
/// this runs the speculative parallel pipeline, in priority-order waves of
/// `options.wave_size` queries (otherwise the serial loop):
///
///   1. query phase — the wave's queries planned concurrently by the pool,
///      each worker searching the frozen committed state through its own
///      QueryContext;
///   2. commit pass — on the calling thread, in priority order, each
///      speculative route is validated against everything committed before
///      it in the wave (vertex + swap, Def. 3); valid routes are committed
///      as-is, invalidated ones are never committed and re-plan serially
///      against live state.
///
/// The committed set is collision-free by construction and the result is
/// deterministic for a fixed priority order and wave size regardless of
/// thread count and scheduling.
BatchResult PlanBatch(Planner& planner, TimeStep t,
                      const std::vector<BatchQuery>& queries,
                      const BatchPlanOptions& options);

}  // namespace carp::core

#endif  // CARP_CORE_BATCH_PLANNER_H_
