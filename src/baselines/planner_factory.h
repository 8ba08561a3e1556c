#ifndef CARP_BASELINES_PLANNER_FACTORY_H_
#define CARP_BASELINES_PLANNER_FACTORY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/planner.h"
#include "core/warehouse.h"

namespace carp::baselines {

/// Cross-cutting construction knobs shared by every algorithm tag.
struct PlannerBuildOptions {
  /// Byte budget of ACP's OD path cache (LRU-evicted past the budget).
  /// Ignored by every other tag. 0 keeps the AcpPlannerOptions default.
  std::size_t acp_cache_budget_bytes = 0;
};

/// Creates a planner by algorithm tag: "SAP", "RP", "TWP", "ACP", "SRP",
/// or "SRP-indexed" (SRP with the slope index of Sec. V-D instead of the
/// default sorted store — the Fig. 22 ablation). Returns nullptr for
/// unknown tags.
///
/// The returned planner references `matrix`; the caller keeps it alive.
std::unique_ptr<core::Planner> MakePlanner(std::string_view algorithm,
                                           const core::WarehouseMatrix& matrix,
                                           const PlannerBuildOptions& build);

std::unique_ptr<core::Planner> MakePlanner(std::string_view algorithm,
                                           const core::WarehouseMatrix& matrix);

/// All algorithm tags in the paper's comparison order.
std::vector<std::string> PaperAlgorithms();

}  // namespace carp::baselines

#endif  // CARP_BASELINES_PLANNER_FACTORY_H_
