#ifndef CARP_BASELINES_PLANNER_FACTORY_H_
#define CARP_BASELINES_PLANNER_FACTORY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/heuristic_table.h"
#include "core/planner.h"
#include "core/search_engine.h"
#include "core/warehouse.h"

namespace carp::baselines {

/// Cross-cutting construction knobs shared by every algorithm tag.
struct PlannerBuildOptions {
  /// Search heuristic of all space-time / inter-strip searches.
  core::HeuristicMode heuristic = core::HeuristicMode::kTable;

  /// Byte budget of the per-goal distance-table cache (table mode only).
  std::size_t heuristic_budget_bytes =
      core::HeuristicTableCache::Options{}.budget_bytes;

  /// Search engine of the grid-based baselines (kAuto = CARP_FORCE_ENGINE,
  /// then the time-expanded default). The engines guarantee equal route
  /// costs, not identical routes (DESIGN.md §2k). Ignored by SRP, whose
  /// only space-time search is its time-expanded A* fallback.
  core::SearchEngine engine = core::SearchEngine::kAuto;

  /// Byte budget of ACP's OD path cache (LRU-evicted past the budget).
  /// Ignored by every other tag. 0 keeps the AcpPlannerOptions default.
  std::size_t acp_cache_budget_bytes = 0;
};

/// Creates a planner by algorithm tag: "SAP", "RP", "TWP", "ACP", "SRP",
/// or "SRP-noindex" (SRP with the naive Sec. V-B store — the Fig. 22
/// ablation). Returns nullptr for unknown tags.
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
