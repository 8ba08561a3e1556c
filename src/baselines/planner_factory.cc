#include "baselines/planner_factory.h"

#include "baselines/acp_planner.h"
#include "baselines/rp_planner.h"
#include "baselines/sap_planner.h"
#include "baselines/twp_planner.h"
#include "srp/srp_planner.h"

namespace carp::baselines {

std::unique_ptr<core::Planner> MakePlanner(std::string_view algorithm,
                                           const core::WarehouseMatrix& matrix,
                                           const PlannerBuildOptions& build) {
  if (algorithm == "SAP") return std::make_unique<SapPlanner>(matrix);
  if (algorithm == "RP") return std::make_unique<RpPlanner>(matrix);
  if (algorithm == "TWP") return std::make_unique<TwpPlanner>(matrix);
  if (algorithm == "ACP") {
    AcpPlannerOptions options;
    if (build.acp_cache_budget_bytes != 0) {
      options.cache_budget_bytes = build.acp_cache_budget_bytes;
    }
    return std::make_unique<AcpPlanner>(matrix, options);
  }
  if (algorithm == "SRP") return std::make_unique<srp::SrpPlanner>(matrix);
  if (algorithm == "SRP-noindex") {
    srp::SrpPlannerOptions options;
    options.use_slope_index = false;
    return std::make_unique<srp::SrpPlanner>(matrix, options);
  }
  return nullptr;
}

std::unique_ptr<core::Planner> MakePlanner(
    std::string_view algorithm, const core::WarehouseMatrix& matrix) {
  return MakePlanner(algorithm, matrix, PlannerBuildOptions{});
}

std::vector<std::string> PaperAlgorithms() {
  return {"SAP", "RP", "TWP", "ACP", "SRP"};
}

}  // namespace carp::baselines
