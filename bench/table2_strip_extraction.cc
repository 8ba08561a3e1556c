// Reproduces Table II: dataset summary and the reduction from grid-based
// to strip-based representation (#vertices to ~16%, #edges to ~23%).
//
// The grid-based counts follow the paper's convention (Table II): every
// cell is a vertex and each interior cell boundary pair contributes edges
// totalling ~2*H*W.
//
// `graph MiB` is StripGraph::RetainedBytes, the static share of SRP's MC
// (Figs. 19-21): strips, the cell-to-strip map and the CSR edge arrays.

#include <iostream>

#include "common/table_writer.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "srp/strip_graph.h"
#include "workload/scenario.h"

int main() {
  using namespace carp;

  std::cout << "=== Table II: datasets and strip-based extraction ===\n\n";
  TableWriter table({"Name", "HxW", "#Rack", "#Robot", "#Picker",
                     "tasks/day (x10^3)", "grid #v", "grid #e", "strip #v",
                     "strip #e", "v ratio", "e ratio", "graph MiB"});

  for (const auto& config : layout::PaperPresets()) {
    const layout::Warehouse w = layout::GenerateWarehouse(config);
    const srp::StripGraph graph(w.matrix);

    const std::int64_t grid_vertices = w.matrix.CellCount();
    const std::int64_t grid_edges = 2 * w.matrix.CellCount();

    const workload::Scenario scenario = workload::PaperScenario(config.name);
    std::string tasks;
    for (std::size_t d = 0; d < scenario.daily_tasks.size(); ++d) {
      if (d > 0) tasks += " ";
      tasks += FormatDouble(
          static_cast<double>(scenario.daily_tasks[d]) / 1000.0, 1);
    }

    table.AddRow(
        {config.name,
         std::to_string(config.height) + "x" + std::to_string(config.width),
         std::to_string(w.matrix.RackCount()),
         std::to_string(config.num_robots),
         std::to_string(config.num_pickers), tasks,
         std::to_string(grid_vertices), std::to_string(grid_edges),
         std::to_string(graph.vertex_count()),
         std::to_string(graph.edge_count()),
         FormatDouble(static_cast<double>(graph.vertex_count()) /
                          static_cast<double>(grid_vertices) * 100,
                      1) +
             "%",
         FormatDouble(static_cast<double>(graph.edge_count()) /
                          static_cast<double>(grid_edges) * 100,
                      1) +
             "%",
         FormatDouble(static_cast<double>(graph.RetainedBytes()) /
                          (1024.0 * 1024.0),
                      2)});
  }
  table.Print(std::cout);
  std::cout << "\npaper: strip representation reduces vertices to ~16% and "
               "edges to ~23% (Sec. VIII-A).\n";
  return 0;
}
