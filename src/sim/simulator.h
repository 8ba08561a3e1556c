#ifndef CARP_SIM_SIMULATOR_H_
#define CARP_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "core/planner.h"
#include "layout/layout_generator.h"
#include "sim/assignment.h"
#include "sim/event_trace.h"
#include "sim/metrics.h"
#include "sim/robot_pool.h"
#include "workload/task.h"

namespace carp::sim {

struct SimulatorOptions {
  /// Number of progress samples recorded over the run (Figs. 16-21 series).
  std::int32_t sample_points = 50;

  /// Validate the final committed route set with the collision oracle.
  bool validate = true;

  /// How tasks are matched to idle robots.
  AssignmentPolicy assignment = AssignmentPolicy::kNearest;

  /// Worker threads for speculative batched dispatch. With threads > 1 and
  /// a speculation-capable planner, pickup queries that become dispatchable
  /// at the same timestep are planned as one parallel batch
  /// (core::PlanBatch's validate-then-commit pipeline). threads <= 1 keeps
  /// the classic serial dispatch loop, bit-for-bit.
  int threads = 1;

  /// Retire each stage's route through Planner::ReleaseRoute as soon as
  /// the robot finishes executing it, and run Planner::PruneBefore on a
  /// fixed cadence, so long-horizon runs hold state only for routes that
  /// are still executing. Off by default: with retirement off a run keeps
  /// every committed route, matching the paper's single-day experiments
  /// (and the planner's committed-route count).
  bool retire_routes = false;

  /// Simulated timesteps between PruneBefore sweeps (retire_routes only).
  TimeStep prune_every = 4096;

  /// Prune horizon slack: a sweep at simulated time `now` prunes state
  /// strictly before `now - prune_slack`. The slack keeps just-finished
  /// reservations around long enough that in-flight dispatch decisions at
  /// `now` never race the sweep (retire_routes only).
  TimeStep prune_slack = 64;

  /// Optional structured event sink (not owned); nullptr disables tracing.
  EventTrace* trace = nullptr;
};

/// The online test environment of Sec. VIII-A: simulates the emergence of
/// delivery tasks, dispatches the nearest idle robot, issues the three
/// planning queries per task (pickup -> transmission -> return) to the
/// planner at their emergence times, executes the returned routes, and
/// records OG / TC / MC.
///
/// Consistent with the paper's formulation (Def. 3), collision-freedom is
/// defined over the set of *routes*; parked idle robots hold no
/// reservation. The planner's wall-clock is measured only inside
/// Planner::PlanRoute calls.
class Simulator {
 public:
  Simulator(const layout::Warehouse& warehouse, core::Planner& planner,
            const SimulatorOptions& options = {});

  /// Runs one operating day to completion and returns its metrics. With
  /// validation on, the collision oracle covers every route committed
  /// through this simulator so far — consecutive days on one planner are
  /// validated as one concatenated history, including routes earlier days
  /// already retired.
  RunMetrics Run(const std::vector<workload::DeliveryTask>& tasks);

 private:
  const layout::Warehouse& warehouse_;
  core::Planner& planner_;
  SimulatorOptions options_;
  // Routes retired by every Run so far (validation only): the planner's
  // log no longer holds them, but later days must not collide with them.
  std::vector<core::Route> retired_;
};

}  // namespace carp::sim

#endif  // CARP_SIM_SIMULATOR_H_
