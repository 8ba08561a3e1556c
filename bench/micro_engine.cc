// Search-engine bench: paired searches over identical committed state,
// once on the time-expanded (cell, t) A* oracle and once on the
// safe-interval (cell, free-interval) engine, on every grid-based backend
// and the paper's three warehouses. SRP takes no engine (its only
// space-time search is the time-expanded A* fallback), so it has no row.
//
// The pairing is exact: both planners answer every query with a *const*
// QueryRoute against byte-identical reservation state, then the A* route
// is committed into both. The engines share constraint set and objective,
// so the two answers must COST the same on every query — route identity is
// deliberately not part of the contract (DESIGN.md §2k: the interval
// engine places waits wherever the collapsed expansion lands them). Every
// SIPP answer is additionally validated collision-free against the
// committed state it was planned over. Any cost mismatch or validation
// failure is a correctness bug, and with --strict it fails the run.
//
// The headline metric is node expansions per query on the grid baselines:
// one interval node subsumes a whole wait chain of time-expanded nodes, so
// under congestion SIPP expands strictly less. --strict gates the W-2
// grid-aggregate reduction at >= 30%.
//
// Emits BENCH_engine.json. Usage:
//   micro_engine [--scenarios=W-1,W-2,W-3] [--queries=N] [--seed=S]
//                [--backends=A,B,...] [--out=FILE] [--strict]

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/planner_factory.h"
#include "common/rng.h"
#include "common/table_writer.h"
#include "core/collision.h"
#include "core/search_engine.h"
#include "flags.h"
#include "layout/layout_generator.h"
#include "workload/scenario.h"

namespace carp {
namespace {

struct PairedQuery {
  GridCoord origin;
  GridCoord destination;
  TimeStep start = 0;
};

struct Workload {
  /// Robots loading at rack faces: each occupies its cell for the whole
  /// dwell window, committed into both planners before any query runs.
  std::vector<core::Route> blockers;
  std::vector<PairedQuery> queries;
};

/// Dwell window of the loading stops. Long enough that queries arriving
/// mid-window must sit out a substantial remainder on every warehouse.
constexpr TimeStep kDwell = 96;

/// The slack a blocked-destination query should arrive with: its start is
/// back-computed so the robot reaches the rack roughly this many steps
/// before the dwell ends. This is the knob that sizes the wait chains —
/// the time-expanded engine pays one (cell, t) node per unit of slack per
/// fringe cell, the interval engine one node per cell.
constexpr TimeStep kTargetSlack = 28;

/// Deterministic mix of the two regimes that matter for the engine A/B:
/// even queries target a dwelling robot's rack face (forced waiting — the
/// wait-chain-collapse case), odd queries are plain rack <-> picker
/// traffic staggered tightly enough to cross paths (the conflict-routing
/// case). A conflict-free stream would show both engines expanding the
/// same nodes.
Workload SampleWorkload(const layout::Warehouse& w, int count,
                        std::uint64_t seed) {
  Rng rng(seed);
  Workload wl;

  const std::size_t stops = std::min<std::size_t>(8, w.rack_access.size());
  std::vector<GridCoord> stop_cells;
  while (stop_cells.size() < stops) {
    const GridCoord cell = w.rack_access[rng.UniformU32(
        static_cast<std::uint32_t>(w.rack_access.size()))];
    if (std::find(stop_cells.begin(), stop_cells.end(), cell) ==
        stop_cells.end()) {
      stop_cells.push_back(cell);
      wl.blockers.emplace_back(
          0, std::vector<GridCoord>(static_cast<std::size_t>(kDwell) + 1,
                                    cell));
    }
  }

  TimeStep now = 0;
  for (int i = 0; i < count; ++i) {
    const auto& picker = w.pickers[rng.UniformU32(
        static_cast<std::uint32_t>(w.pickers.size()))];
    if (i % 2 == 0) {
      const GridCoord rack = stop_cells[static_cast<std::size_t>(i / 2) %
                                        stop_cells.size()];
      // Manhattan underestimates the true arrival (racks detour the
      // route), so the realized slack is at most the target — never an
      // arrival past the dwell's end turning the query conflict-free.
      const TimeStep lower_bound =
          std::abs(picker.row - rack.row) + std::abs(picker.col - rack.col);
      wl.queries.push_back(
          {picker, rack,
           std::max<TimeStep>(0, kDwell - kTargetSlack - lower_bound)});
    } else {
      const auto& rack = w.rack_access[rng.UniformU32(
          static_cast<std::uint32_t>(w.rack_access.size()))];
      wl.queries.push_back({rack, picker, now});
    }
    now += 2;
  }
  return wl;
}

struct BackendRow {
  std::string scenario;
  std::string backend;
  int queries = 0;
  std::int64_t astar_expanded = 0;
  std::int64_t sipp_expanded = 0;
  std::int64_t intervals_built = 0;
  std::int64_t interval_expansions = 0;
  double astar_seconds = 0;
  double sipp_seconds = 0;
  int cost_mismatches = 0;  // queries whose two answers cost differently
  bool collision_free = true;

  double Reduction() const {
    return astar_expanded == 0
               ? 0.0
               : 1.0 - static_cast<double>(sipp_expanded) /
                           static_cast<double>(astar_expanded);
  }
};

}  // namespace
}  // namespace carp

int main(int argc, char** argv) {
  using namespace carp;
  using Clock = std::chrono::steady_clock;

  std::vector<std::string> scenarios = {"W-1", "W-2", "W-3"};
  std::vector<std::string> backends = {"SAP", "RP", "TWP", "ACP"};
  int query_count = 96;
  std::uint64_t seed = 7;
  std::string out_path = "BENCH_engine.json";
  bool strict = false;
  constexpr const char* kUsage =
      "options: --scenarios=W-1,W-2,W-3 --backends=SAP,RP,TWP,ACP "
      "--queries=N --seed=S --out=FILE --strict\n";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const char* v = bench::FlagValue(arg, "--scenarios=")) {
      scenarios = bench::SplitList(v);
    } else if (const char* v = bench::FlagValue(arg, "--backends=")) {
      backends = bench::SplitList(v);
    } else if (const char* v = bench::FlagValue(arg, "--queries=")) {
      query_count = std::atoi(v);
    } else if (const char* v = bench::FlagValue(arg, "--seed=")) {
      seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (const char* v = bench::FlagValue(arg, "--out=")) {
      out_path = v;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else {
      bench::RejectFlag(arg, kUsage);
    }
  }

  std::cout << "=== safe-interval engine vs time-expanded A* ===\n"
            << "paired queries per backend: " << query_count << "\n\n";

  TableWriter table({"scenario", "backend", "queries", "expand/q astar",
                     "expand/q sipp", "reduction", "intervals/q", "cost==",
                     "astar(s)", "sipp(s)", "collision-free"});
  std::vector<BackendRow> rows;
  bool violation = false;

  for (const std::string& name : scenarios) {
    const auto scenario = workload::PaperScenario(name);
    const layout::Warehouse warehouse = GenerateWarehouse(scenario.layout);
    const Workload workload = SampleWorkload(warehouse, query_count, seed);

    // W-2 strict gate: expansion reduction aggregated over the grid
    // baselines.
    std::int64_t grid_astar_expanded = 0;
    std::int64_t grid_sipp_expanded = 0;

    for (const std::string& backend : backends) {
      baselines::PlannerBuildOptions astar_build;
      astar_build.engine = core::SearchEngine::kAstar;
      baselines::PlannerBuildOptions sipp_build;
      sipp_build.engine = core::SearchEngine::kSipp;
      auto astar =
          baselines::MakePlanner(backend, warehouse.matrix, astar_build);
      auto sipp = baselines::MakePlanner(backend, warehouse.matrix, sipp_build);
      if (astar == nullptr || sipp == nullptr) {
        std::cerr << "unknown backend " << backend << "\n";
        return 2;
      }
      auto ctx_a = astar->MakeQueryContext();
      auto ctx_s = sipp->MakeQueryContext();
      for (const core::Route& b : workload.blockers) {
        astar->CommitRoute(b);
        sipp->CommitRoute(b);
      }

      BackendRow row;
      row.scenario = name;
      row.backend = backend;
      for (const PairedQuery& q : workload.queries) {
        const std::int64_t a_before = ctx_a->stats.expanded_nodes;
        const std::int64_t s_before = ctx_s->stats.expanded_nodes;
        const auto t0 = Clock::now();
        const auto route_a =
            astar->QueryRoute(*ctx_a, q.start, q.origin, q.destination);
        const auto t1 = Clock::now();
        const auto route_s =
            sipp->QueryRoute(*ctx_s, q.start, q.origin, q.destination);
        const auto t2 = Clock::now();
        row.astar_expanded += ctx_a->stats.expanded_nodes - a_before;
        row.sipp_expanded += ctx_s->stats.expanded_nodes - s_before;
        row.astar_seconds += std::chrono::duration<double>(t1 - t0).count();
        row.sipp_seconds += std::chrono::duration<double>(t2 - t1).count();
        ++row.queries;

        if (route_a.has_value() != route_s.has_value() ||
            (route_a && route_s &&
             route_a->end_time() != route_s->end_time())) {
          ++row.cost_mismatches;
          std::cerr << name << "/" << backend << ": cost mismatch "
                    << q.origin << " -> " << q.destination << " at t="
                    << q.start << " (astar "
                    << (route_a ? std::to_string(route_a->end_time())
                                : std::string("none"))
                    << ", sipp "
                    << (route_s ? std::to_string(route_s->end_time())
                                : std::string("none"))
                    << ")\n";
        }

        // The interval engine's answer must be collision-free against the
        // exact committed state it was planned over — cost equality alone
        // would also be satisfied by a cheaper *colliding* route.
        if (route_s) {
          std::vector<core::Route> probe = astar->committed_routes();
          probe.push_back(*route_s);
          if (!core::ValidateRoutes(probe)) {
            row.collision_free = false;
            std::cerr << name << "/" << backend
                      << ": sipp route collides, " << q.origin << " -> "
                      << q.destination << " at t=" << q.start << "\n";
          }
        }

        // Commit the A* route into *both* planners so the two states stay
        // byte-identical for the next query.
        if (route_a) {
          astar->CommitRoute(*route_a);
          sipp->CommitRoute(*route_a);
        }
      }
      if (!core::ValidateRoutes(astar->committed_routes())) {
        std::cerr << name << "/" << backend
                  << ": committed route set is NOT collision-free\n";
        row.collision_free = false;
      }
      row.intervals_built = sipp->stats().intervals_built +
                            ctx_s->stats.intervals_built;
      row.interval_expansions = sipp->stats().interval_expansions +
                                ctx_s->stats.interval_expansions;
      grid_astar_expanded += row.astar_expanded;
      grid_sipp_expanded += row.sipp_expanded;
      if (row.cost_mismatches > 0 || !row.collision_free) violation = true;

      table.AddRow(
          {row.scenario, row.backend, std::to_string(row.queries),
           FormatDouble(static_cast<double>(row.astar_expanded) /
                            std::max(1, row.queries),
                        1),
           FormatDouble(static_cast<double>(row.sipp_expanded) /
                            std::max(1, row.queries),
                        1),
           FormatDouble(row.Reduction() * 100, 1) + "%",
           FormatDouble(static_cast<double>(row.intervals_built) /
                            std::max(1, row.queries),
                        1),
           row.cost_mismatches == 0 ? "yes" : "NO",
           FormatDouble(row.astar_seconds, 3),
           FormatDouble(row.sipp_seconds, 3),
           row.collision_free ? "yes" : "NO"});
      rows.push_back(row);
    }

    // The W-2 gate (DESIGN.md §2k): under the funneled contention stream
    // the interval engine must collapse at least 30% of the grid
    // baselines' time-expanded expansions.
    if (strict && name == "W-2" && grid_astar_expanded > 0) {
      const double reduction =
          1.0 - static_cast<double>(grid_sipp_expanded) /
                    static_cast<double>(grid_astar_expanded);
      if (reduction < 0.30) {
        std::cerr << "W-2 grid expansion reduction "
                  << FormatDouble(reduction * 100, 1)
                  << "% is below the 30% gate\n";
        violation = true;
      }
    }
  }
  table.Print(std::cout);

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"engine\",\n  \"queries_per_backend\": "
      << query_count << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BackendRow& r = rows[i];
    out << "    {\"scenario\": \"" << r.scenario << "\""
        << ", \"backend\": \"" << r.backend << "\""
        << ", \"queries\": " << r.queries
        << ", \"astar_expanded\": " << r.astar_expanded
        << ", \"sipp_expanded\": " << r.sipp_expanded
        << ", \"expansion_reduction\": " << r.Reduction()
        << ", \"intervals_built\": " << r.intervals_built
        << ", \"interval_expansions\": " << r.interval_expansions
        << ", \"astar_seconds\": " << r.astar_seconds
        << ", \"sipp_seconds\": " << r.sipp_seconds
        << ", \"cost_mismatches\": " << r.cost_mismatches
        << ", \"collision_free\": " << (r.collision_free ? "true" : "false")
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << out_path << "\n";

  if (strict && violation) {
    std::cerr << "--strict: cost mismatch, collision, or expansion-reduction "
                 "shortfall detected\n";
    return 1;
  }
  return 0;
}
