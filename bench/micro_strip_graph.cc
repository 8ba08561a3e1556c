// Micro-benchmark of strip graph construction (Alg. 1) and lookups. The
// graph is built once per warehouse, but construction must stay O(HW) to
// make SRP deployable, and StripOf/PositionInStrip sit on every query's
// hot path.

#include <map>
#include <span>
#include <string>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "srp/strip_graph.h"

namespace carp::srp {
namespace {

const layout::Warehouse& WarehouseFor(const std::string& name) {
  static auto* cache =
      new std::map<std::string, layout::Warehouse>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    it = cache->emplace(name,
                        layout::GenerateWarehouse(layout::PresetByName(name)))
             .first;
  }
  return it->second;
}

void BM_Construction(benchmark::State& state, const std::string& name) {
  const layout::Warehouse& w = WarehouseFor(name);
  for (auto _ : state) {
    StripGraph graph(w.matrix);
    benchmark::DoNotOptimize(graph.vertex_count());
  }
  state.SetLabel(name + " " + std::to_string(w.matrix.height()) + "x" +
                 std::to_string(w.matrix.width()));
}
BENCHMARK_CAPTURE(BM_Construction, w1, std::string("W-1"));
BENCHMARK_CAPTURE(BM_Construction, w2, std::string("W-2"));
BENCHMARK_CAPTURE(BM_Construction, w3, std::string("W-3"));

void BM_StripOfLookup(benchmark::State& state) {
  const layout::Warehouse& w = WarehouseFor("W-2");
  const StripGraph graph(w.matrix);
  Rng rng(5);
  for (auto _ : state) {
    GridCoord g{static_cast<std::int32_t>(
                    rng.UniformU32(static_cast<std::uint32_t>(
                        w.matrix.height()))),
                static_cast<std::int32_t>(rng.UniformU32(
                    static_cast<std::uint32_t>(w.matrix.width())))};
    benchmark::DoNotOptimize(graph.StripOf(g));
  }
}
BENCHMARK(BM_StripOfLookup);

void BM_NearestContact(benchmark::State& state) {
  const layout::Warehouse& w = WarehouseFor("W-1");
  const StripGraph graph(w.matrix);
  // Pick a latitudinal aisle strip with many side contacts.
  StripId widest = 0;
  std::size_t most_contacts = 0;
  for (const Strip& s : graph.strips()) {
    for (const StripEdge& e : graph.EdgesOf(s.id)) {
      if (graph.ContactsOf(e).size() > most_contacts) {
        most_contacts = graph.ContactsOf(e).size();
        widest = s.id;
      }
    }
  }
  const std::span<const StripEdge> edges = graph.EdgesOf(widest);
  Rng rng(6);
  for (auto _ : state) {
    const StripEdge& e = edges[rng.UniformU32(
        static_cast<std::uint32_t>(edges.size()))];
    benchmark::DoNotOptimize(
        NearestContact(graph.ContactsOf(e), rng.UniformInt(0, 100)));
  }
  state.SetLabel("max contacts=" + std::to_string(most_contacts));
}
BENCHMARK(BM_NearestContact);

}  // namespace
}  // namespace carp::srp

BENCHMARK_MAIN();
