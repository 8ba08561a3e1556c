#ifndef CARP_BASELINES_RP_PLANNER_H_
#define CARP_BASELINES_RP_PLANNER_H_

#include <optional>
#include <string_view>
#include <vector>

#include "baselines/cbs.h"
#include "baselines/grid_planner_base.h"

namespace carp::baselines {

struct RpPlannerOptions {
  GridPlannerOptions grid;
  CbsOptions cbs;

  /// Maximum size of a jointly replanned group (new route + conflicting
  /// not-yet-started routes); larger groups go straight to prioritized
  /// replanning.
  std::size_t max_group = 8;
};

/// Replanning baseline (the paper's RP [3]).
///
/// Plans the new query with a collision-*oblivious* spatial shortest path.
/// If the result conflicts with committed routes, the conflicting group is
/// replanned *jointly* with an offline optimal method — CBS [2] — treating
/// all other routes as hard constraints. Routes that have already started
/// executing (start < now) are never rewritten: they stay in the external
/// constraint set, so the joint group contains only the new route and
/// conflicting routes whose start time is still in the future. When CBS
/// exhausts its budget the group falls back to prioritized space-time A*.
class RpPlanner final : public GridPlannerBase {
 public:
  RpPlanner(const core::WarehouseMatrix& matrix,
            const RpPlannerOptions& options = {})
      : GridPlannerBase(matrix, options.grid),
        rp_options_(options),
        cbs_(matrix) {}

  std::optional<core::Route> PlanRoute(TimeStep now, GridCoord origin,
                                       GridCoord destination) override;
  std::string_view name() const override { return "RP"; }
  void Reset() override;

  /// Speculative commits must keep the per-route start array aligned with
  /// the log (PlanRoute's serial paths push it themselves).
  void CommitRoute(const core::Route& route) override {
    GridPlannerBase::CommitRoute(route);
    earliest_starts_.push_back(route.start_time());
  }

 protected:
  void OnRouteErased(std::size_t index) override {
    earliest_starts_.erase(earliest_starts_.begin() +
                           static_cast<std::ptrdiff_t>(index));
  }

 private:
  // Queries' earliest start times, parallel to route_log_ (needed when a
  // committed route is replanned).
  std::vector<TimeStep> earliest_starts_;
  RpPlannerOptions rp_options_;
  CbsSolver cbs_;
};

}  // namespace carp::baselines

#endif  // CARP_BASELINES_RP_PLANNER_H_
