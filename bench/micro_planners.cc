// Micro-benchmark: per-query planning latency of all five algorithms on a
// warm mid-size warehouse. This is the per-request view of the Figs. 16-18
// comparison — the latency a dispatcher would observe at 50 routes/second
// (the paper's real-world requirement, Sec. II).

#include <benchmark/benchmark.h>

#include <memory>

#include "baselines/planner_factory.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "workload/request_stream.h"
#include "workload/task_generator.h"

namespace carp {
namespace {

const layout::Warehouse& SmallWarehouse() {
  static auto* w = new layout::Warehouse(
      layout::GenerateWarehouse(layout::PresetByName("small")));
  return *w;
}

std::vector<workload::PlanningQuery> Queries() {
  const auto& w = SmallWarehouse();
  workload::TaskGeneratorOptions opts;
  opts.task_count = 4000;
  opts.day_length = 40'000;
  opts.seed = 21;
  return workload::FlattenToQueries(
      w, workload::GenerateTasks(w, workload::ArrivalProfile::DoubleSurge(),
                                 opts));
}

void BM_PlanQuery(benchmark::State& state, const std::string& algorithm) {
  const auto& warehouse = SmallWarehouse();
  static auto* queries = new auto(Queries());

  auto planner = baselines::MakePlanner(algorithm, warehouse.matrix);
  // Warm up with 200 committed routes so queries contend realistically.
  std::size_t i = 0;
  for (; i < 200; ++i) {
    const auto& q = (*queries)[i % queries->size()];
    planner->PlanRoute(q.emergence, q.origin, q.destination);
  }
  for (auto _ : state) {
    const auto& q = (*queries)[i % queries->size()];
    benchmark::DoNotOptimize(
        planner->PlanRoute(q.emergence, q.origin, q.destination));
    ++i;
  }
  state.SetLabel(algorithm);
}
BENCHMARK_CAPTURE(BM_PlanQuery, sap, std::string("SAP"))->Iterations(300);
BENCHMARK_CAPTURE(BM_PlanQuery, rp, std::string("RP"))->Iterations(300);
BENCHMARK_CAPTURE(BM_PlanQuery, twp, std::string("TWP"))->Iterations(300);
BENCHMARK_CAPTURE(BM_PlanQuery, acp, std::string("ACP"))->Iterations(300);
BENCHMARK_CAPTURE(BM_PlanQuery, srp, std::string("SRP"))->Iterations(300);
BENCHMARK_CAPTURE(BM_PlanQuery, srp_indexed, std::string("SRP-indexed"))
    ->Iterations(300);

}  // namespace
}  // namespace carp

BENCHMARK_MAIN();
