#include "check/planner_differential.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "baselines/planner_factory.h"
#include "common/rng.h"
#include "core/batch_planner.h"
#include "core/collision.h"
#include "core/reservation_table.h"
#include "core/safe_intervals.h"
#include "core/search_engine.h"
#include "core/sipp_astar.h"
#include "core/spacetime_astar.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "sim/simulator.h"
#include "srp/srp_planner.h"
#include "workload/task_generator.h"

namespace carp::check {

namespace {

std::vector<workload::DeliveryTask> MakeTasks(const layout::Warehouse& w,
                                              const PlannerDiffOptions& opt) {
  workload::TaskGeneratorOptions topts;
  topts.task_count = opt.tasks;
  topts.day_length = opt.day_length;
  topts.seed = opt.seed;
  return workload::GenerateTasks(w, workload::ArrivalProfile::Uniform(),
                                 topts);
}

/// Deterministic rack-access -> picker batch for the PlanBatch checks.
std::vector<core::BatchQuery> MakeQueries(const layout::Warehouse& w,
                                          std::size_t count,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> racks(w.rack_access.size());
  std::vector<std::size_t> pickers(w.pickers.size());
  for (std::size_t i = 0; i < racks.size(); ++i) racks[i] = i;
  for (std::size_t i = 0; i < pickers.size(); ++i) pickers[i] = i;
  rng.Shuffle(racks);
  rng.Shuffle(pickers);
  count = std::min({count, racks.size(), pickers.size()});
  std::vector<core::BatchQuery> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back(
        core::BatchQuery{w.rack_access[racks[i]], w.pickers[pickers[i]]});
  }
  return queries;
}

/// The backends under differential test: the paper's comparison set plus
/// the store ablation.
std::vector<std::string> Backends() {
  return {"SAP", "RP", "TWP", "ACP", "SRP", "SRP-noindex"};
}

}  // namespace

PlannerDiffResult RunPlannerDifferential(const PlannerDiffOptions& opt) {
  PlannerDiffResult result;
  auto fail = [&](const std::string& what) -> PlannerDiffResult& {
    std::ostringstream out;
    out << "planner differential (preset=" << opt.preset
        << " seed=" << opt.seed << " tasks=" << opt.tasks
        << " retire=" << opt.retire_routes << "): " << what;
    result.ok = false;
    result.error = out.str();
    return result;
  };

  const layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetByName(opt.preset));
  const auto tasks = MakeTasks(warehouse, opt);

  // ---- 1) Every backend through the same simulated day, under every
  // requested thread count: the run must validate collision-free, drain,
  // and keep its lifecycle accounting consistent.
  std::map<std::pair<std::string, int>, sim::RunMetrics> metrics;
  baselines::PlannerBuildOptions build;
  build.heuristic = opt.heuristic;
  for (const std::string& backend : Backends()) {
    for (int threads : opt.thread_counts) {
      auto planner = baselines::MakePlanner(backend, warehouse.matrix, build);
      if (planner == nullptr) return fail("unknown backend " + backend);

      sim::SimulatorOptions sopts;
      sopts.validate = true;
      sopts.threads = threads;
      sopts.retire_routes = opt.retire_routes;
      sopts.prune_every = opt.prune_every;
      sopts.prune_slack = opt.prune_slack;
      sim::Simulator sim(warehouse, *planner, sopts);
      sim::RunMetrics m = sim.Run(tasks);

      std::ostringstream tag;
      tag << backend << " threads=" << threads;
      if (!m.validated || !m.collision_free) {
        return fail(tag.str() + ": committed route set is NOT collision-free");
      }
      if (m.finished_tasks != m.total_tasks) {
        std::ostringstream what;
        what << tag.str() << ": finished " << m.finished_tasks << " of "
             << m.total_tasks << " tasks";
        return fail(what.str());
      }
      if (opt.retire_routes) {
        // Live-route accounting: every stage route retires as its robot
        // finishes, so a drained day leaves nothing live...
        if (m.end_live_routes != 0 || planner->live_routes() != 0) {
          std::ostringstream what;
          what << tag.str() << ": " << m.end_live_routes
               << " routes still live after the day drained";
          return fail(what.str());
        }
        if (m.routes_released <= 0) {
          return fail(tag.str() + ": retirement on but no route released");
        }
        // ...and SRP's exact release leaves the segment stores empty.
        if (auto* srp = dynamic_cast<srp::SrpPlanner*>(planner.get())) {
          if (srp->SegmentCount() != 0) {
            std::ostringstream what;
            what << tag.str() << ": " << srp->SegmentCount()
                 << " segments leaked after all routes retired";
            return fail(what.str());
          }
          if (std::string err = srp->CheckInvariants(); !err.empty()) {
            return fail(tag.str() + ": " + err);
          }
        }
      }
      metrics[{backend, threads}] = std::move(m);
    }
  }

  // ---- 2) Store ablation differential: the slope index is a drop-in
  // replacement, so SRP and SRP-noindex must produce identical days.
  for (int threads : opt.thread_counts) {
    const sim::RunMetrics& indexed = metrics[{"SRP", threads}];
    const sim::RunMetrics& naive = metrics[{"SRP-noindex", threads}];
    if (indexed.makespan != naive.makespan ||
        indexed.routes_released != naive.routes_released) {
      std::ostringstream what;
      what << "SRP vs SRP-noindex diverged at threads=" << threads
           << ": makespan " << indexed.makespan << " vs " << naive.makespan
           << ", released " << indexed.routes_released << " vs "
           << naive.routes_released;
      return fail(what.str());
    }
  }
  {
    const auto queries = MakeQueries(warehouse, 24, opt.seed);
    srp::SrpPlanner indexed(warehouse.matrix);
    srp::SrpPlannerOptions noindex_opts;
    noindex_opts.use_slope_index = false;
    srp::SrpPlanner naive(warehouse.matrix, noindex_opts);
    core::PlanBatch(indexed, 0, queries);
    core::PlanBatch(naive, 0, queries);
    if (indexed.committed_routes() != naive.committed_routes()) {
      return fail("SRP vs SRP-noindex PlanBatch route sets diverged");
    }
  }

  // ---- 3) Serial-vs-speculative equality, the one determinism promise
  // across thread counts: PlanBatch's commit-then-validate pipeline in
  // fixed priority order must reproduce the serial prioritized loop.
  {
    const auto queries = MakeQueries(warehouse, 24, opt.seed + 1);
    srp::SrpPlanner serial(warehouse.matrix);
    core::PlanBatch(serial, 0, queries);
    if (!core::ValidateRoutes(serial.committed_routes())) {
      return fail("serial PlanBatch route set is NOT collision-free");
    }
    for (int threads : opt.thread_counts) {
      if (threads <= 1) continue;
      srp::SrpPlanner speculative(warehouse.matrix);
      core::BatchPlanOptions bopts;
      bopts.threads = threads;
      bopts.sharded_commit = false;  // the sharded pipeline is phase 5's job
      core::PlanBatch(speculative, 0, queries, bopts);
      if (speculative.committed_routes() != serial.committed_routes()) {
        std::ostringstream what;
        what << "speculative PlanBatch (threads=" << threads
             << ") diverged from the serial prioritized loop";
        return fail(what.str());
      }
    }
  }

  // ---- 3b) Sharded-commit differential (DESIGN.md §2h), every backend:
  // the sharded pipeline changes who executes the commit mutation, never
  // the accept/reject decisions, so for identical queries it must commit
  // exactly the nonsharded speculative pipeline's route set — and for
  // backends whose speculative query phase is their exact serial search
  // (SAP and the SRP variants) both must equal the serial loop. SRP
  // additionally proves its sharded state: clean shard/store invariants,
  // equal segment counts, and commits actually routed through the shard
  // locks.
  for (const std::string& backend : Backends()) {
    const auto queries = MakeQueries(warehouse, 24, opt.seed + 3);
    baselines::PlannerBuildOptions bbuild;
    bbuild.heuristic = opt.heuristic;
    auto serial = baselines::MakePlanner(backend, warehouse.matrix, bbuild);
    core::PlanBatch(*serial, 0, queries);
    for (int threads : opt.thread_counts) {
      if (threads <= 1) continue;
      auto spec = baselines::MakePlanner(backend, warehouse.matrix, bbuild);
      auto sharded = baselines::MakePlanner(backend, warehouse.matrix, bbuild);
      core::BatchPlanOptions bopts;
      bopts.threads = threads;
      bopts.sharded_commit = false;
      core::PlanBatch(*spec, 0, queries, bopts);
      bopts.sharded_commit = true;
      const core::BatchResult sharded_result =
          core::PlanBatch(*sharded, 0, queries, bopts);

      std::ostringstream tag;
      tag << backend << " threads=" << threads;
      if (!core::ValidateRoutes(sharded->committed_routes())) {
        return fail(tag.str() +
                    ": sharded-commit route set is NOT collision-free");
      }
      if (sharded->committed_routes() != spec->committed_routes()) {
        return fail(tag.str() +
                    ": sharded commit diverged from the speculative pipeline");
      }
      const bool exact_speculation =
          backend == "SAP" || backend.rfind("SRP", 0) == 0;
      if (exact_speculation &&
          sharded->committed_routes() != serial->committed_routes()) {
        return fail(tag.str() +
                    ": sharded commit diverged from the serial loop");
      }
      if (auto* srp = dynamic_cast<srp::SrpPlanner*>(sharded.get())) {
        if (std::string err = srp->CheckInvariants(); !err.empty()) {
          return fail(tag.str() + ": sharded state: " + err);
        }
        auto* srp_serial = dynamic_cast<srp::SrpPlanner*>(serial.get());
        if (srp_serial != nullptr &&
            srp->SegmentCount() != srp_serial->SegmentCount()) {
          std::ostringstream what;
          what << tag.str() << ": sharded stores hold " << srp->SegmentCount()
               << " segments, serial holds " << srp_serial->SegmentCount();
          return fail(what.str());
        }
        // Every accepted speculative route commits through the shard locks.
        const std::int64_t accepted =
            sharded_result.speculated - sharded_result.invalidated;
        if (sharded_result.shard_commits < accepted) {
          std::ostringstream what;
          what << tag.str() << ": " << accepted
               << " speculative routes accepted but only "
               << sharded_result.shard_commits
               << " commits went through the shard locks";
          return fail(what.str());
        }
      }
    }
  }

  // ---- 4) Heuristic differential. Both heuristics are admissible for the
  // optimal single-agent search, so over *identical* committed state they
  // must return equally long routes — routes may differ under ties, costs
  // may not. The states are kept identical by always committing the
  // Manhattan planner's route into both planners (the table planner only
  // ever QueryRoutes, which is const).
  {
    const auto queries = MakeQueries(warehouse, 24, opt.seed + 2);
    baselines::PlannerBuildOptions manhattan_build;
    manhattan_build.heuristic = core::HeuristicMode::kManhattan;
    baselines::PlannerBuildOptions table_build;
    table_build.heuristic = core::HeuristicMode::kTable;
    auto manhattan =
        baselines::MakePlanner("SAP", warehouse.matrix, manhattan_build);
    auto table = baselines::MakePlanner("SAP", warehouse.matrix, table_build);
    auto context = table->MakeQueryContext();
    if (context == nullptr) return fail("SAP lost its speculation support");
    TimeStep now = 0;
    for (const auto& q : queries) {
      const auto planned = manhattan->PlanRoute(now, q.origin, q.destination);
      const auto mirrored =
          table->QueryRoute(*context, now, q.origin, q.destination);
      if (planned.has_value() != mirrored.has_value()) {
        std::ostringstream what;
        what << "heuristic cross-check: manhattan "
             << (planned ? "found" : "missed") << " a route " << q.origin
             << " -> " << q.destination << " at t=" << now << " but table "
             << (mirrored ? "found one" : "did not");
        return fail(what.str());
      }
      if (planned && mirrored && planned->end_time() != mirrored->end_time()) {
        std::ostringstream what;
        what << "heuristic cross-check: route costs diverged for " << q.origin
             << " -> " << q.destination << " at t=" << now
             << ": manhattan ends " << planned->end_time() << ", table ends "
             << mirrored->end_time();
        return fail(what.str());
      }
      if (planned) table->CommitRoute(*planned);
      now += 3;  // stagger starts so reservations overlap in time
    }
    if (!core::ValidateRoutes(manhattan->committed_routes())) {
      return fail(
          "heuristic cross-check: manhattan route set is NOT collision-free");
    }
  }

  // ---- 4b) Engine differential (DESIGN.md §2k): a grid backend rebuilt
  // under the safe-interval engine must answer every query with a route of
  // exactly the cost the time-expanded build returns over identical
  // committed state — cost equality, never route identity (the interval
  // engine places waits wherever the collapsed expansion lands them) — and
  // each interval answer must be collision-free against the state it was
  // planned over (cost equality alone would also be satisfied by a cheaper
  // *colliding* route). States stay identical by always committing the
  // time-expanded planner's route into both. SRP takes no engine (its only
  // space-time search is the time-expanded fallback), so it sits out.
  for (const std::string& backend : Backends()) {
    if (backend == "SRP" || backend == "SRP-noindex") continue;
    const auto queries = MakeQueries(warehouse, 24, opt.seed + 5);
    baselines::PlannerBuildOptions astar_build;
    astar_build.heuristic = opt.heuristic;
    astar_build.engine = core::SearchEngine::kAstar;
    baselines::PlannerBuildOptions sipp_build = astar_build;
    sipp_build.engine = core::SearchEngine::kSipp;
    auto astar = baselines::MakePlanner(backend, warehouse.matrix, astar_build);
    auto sipp = baselines::MakePlanner(backend, warehouse.matrix, sipp_build);
    auto astar_context = astar->MakeQueryContext();
    auto sipp_context = sipp->MakeQueryContext();
    if (astar_context == nullptr || sipp_context == nullptr) {
      return fail(backend + " lost its speculation support");
    }
    TimeStep now = 0;
    for (const auto& q : queries) {
      const auto planned =
          astar->QueryRoute(*astar_context, now, q.origin, q.destination);
      const auto mirrored =
          sipp->QueryRoute(*sipp_context, now, q.origin, q.destination);
      if (planned.has_value() != mirrored.has_value()) {
        std::ostringstream what;
        what << backend << " engine cross-check: time-expanded "
             << (planned ? "found" : "missed") << " a route " << q.origin
             << " -> " << q.destination << " at t=" << now
             << " but the interval engine "
             << (mirrored ? "found one" : "did not");
        return fail(what.str());
      }
      if (planned && mirrored &&
          planned->end_time() != mirrored->end_time()) {
        std::ostringstream what;
        what << backend << " engine cross-check: route costs diverged for "
             << q.origin << " -> " << q.destination << " at t=" << now
             << ": time-expanded ends " << planned->end_time()
             << ", interval ends " << mirrored->end_time();
        return fail(what.str());
      }
      if (mirrored) {
        std::vector<core::Route> probe = astar->committed_routes();
        probe.push_back(*mirrored);
        if (!core::ValidateRoutes(probe)) {
          std::ostringstream what;
          what << backend << " engine cross-check: interval route collides, "
               << q.origin << " -> " << q.destination << " at t=" << now;
          return fail(what.str());
        }
      }
      if (planned) {
        astar->CommitRoute(*planned);
        sipp->CommitRoute(*planned);
      }
      now += 3;  // stagger starts so reservations overlap in time
    }
    if (!core::ValidateRoutes(astar->committed_routes())) {
      return fail(backend +
                  " engine cross-check: time-expanded route set is NOT "
                  "collision-free");
    }
  }

  // SRP's inter-strip search is *weighted*, so its costs may legitimately
  // differ between heuristics — for it, assert only that the manhattan
  // mode still yields a valid, collision-free, draining day.
  {
    baselines::PlannerBuildOptions manhattan_build;
    manhattan_build.heuristic = core::HeuristicMode::kManhattan;
    auto planner =
        baselines::MakePlanner("SRP", warehouse.matrix, manhattan_build);
    sim::SimulatorOptions sopts;
    sopts.validate = true;
    sopts.retire_routes = opt.retire_routes;
    sopts.prune_every = opt.prune_every;
    sopts.prune_slack = opt.prune_slack;
    sim::Simulator sim(warehouse, *planner, sopts);
    const sim::RunMetrics m = sim.Run(tasks);
    if (!m.validated || !m.collision_free) {
      return fail(
          "SRP (manhattan heuristic): committed route set is NOT "
          "collision-free");
    }
    if (m.finished_tasks != m.total_tasks) {
      return fail("SRP (manhattan heuristic): day did not drain");
    }
  }

  return result;
}

HeuristicFaultResult RunHeuristicFaultCalibration(int max_seeds) {
  HeuristicFaultResult result;
  const layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetByName("tiny"));
  const core::WarehouseMatrix& matrix = warehouse.matrix;

  core::SpaceTimeAStarOptions manhattan_opts;
  manhattan_opts.horizon = 4 * (matrix.height() + matrix.width());

  for (std::uint64_t seed = 1;
       seed <= static_cast<std::uint64_t>(max_seeds); ++seed) {
    ++result.seeds_tried;
    Rng rng(seed);
    const GridCoord origin = warehouse.pickers[rng.UniformU32(
        static_cast<std::uint32_t>(warehouse.pickers.size()))];
    const GridCoord destination = warehouse.rack_access[rng.UniformU32(
        static_cast<std::uint32_t>(warehouse.rack_access.size()))];
    if (origin == destination) continue;

    // A corrupted *interior* entry is provably harmless: once A* pops the
    // inflated node, its descendants' f drops back to truth and the
    // optimal goal arrival still pops first (in space-time A*, g is
    // determined by the (cell, t) key, so closed-set suboptimality cannot
    // occur either). The only corruption a cost audit can catch is one
    // that makes A* *commit* to a wrong arrival — which requires fencing
    // the goal: every traversable neighbour overestimated, with values
    // *inverted* against the true origin distance so the farthest
    // neighbour pops first and injects a suboptimal goal arrival that
    // outruns the (still-fenced) optimal one.
    core::HeuristicTable origin_table(matrix, origin);
    if (origin_table.At(destination) >= kInfiniteTime) continue;

    GridCoord nbrs[4];
    const int cnt = matrix.Neighbors(destination, nbrs);
    std::vector<std::pair<GridCoord, TimeStep>> fence;
    for (int k = 0; k < cnt; ++k) {
      if (!matrix.IsTraversable(nbrs[k])) continue;
      const TimeStep d = origin_table.At(nbrs[k]);
      if (d >= kInfiniteTime) continue;
      fence.emplace_back(nbrs[k], d);
    }
    // Need two fence cells at *distinct* origin distances: if all
    // neighbours tie, the injected arrival equals the optimal cost and no
    // audit can (or should) fire.
    TimeStep dmin = kInfiniteTime, dmax = -1;
    for (const auto& [cell, d] : fence) {
      dmin = std::min(dmin, d);
      dmax = std::max(dmax, d);
    }
    if (fence.size() < 2 || dmin == dmax) continue;

    // The control: a clean table must agree with Manhattan on cost.
    core::SpaceTimeAStarOptions table_opts = manhattan_opts;
    core::HeuristicTable goal_table(matrix, destination);
    table_opts.heuristic = &goal_table;
    core::ReservationTable empty;
    core::SpaceTimeAStar engine(matrix);
    const auto by_manhattan =
        engine.Plan(empty, 0, origin, destination, manhattan_opts);
    const auto by_clean =
        engine.Plan(empty, 0, origin, destination, table_opts);
    if (!by_manhattan.has_value() || !by_clean.has_value() ||
        by_manhattan->end_time() != by_clean->end_time()) {
      result.detail = "clean control diverged — harness bug, not detection";
      return result;
    }

    for (const auto& [cell, d] : fence) {
      goal_table.CorruptForTest(cell, 50000 - 32 * d);
    }
    const auto by_corrupt =
        engine.Plan(empty, 0, origin, destination, table_opts);
    if (!by_corrupt.has_value() ||
        by_corrupt->end_time() != by_manhattan->end_time()) {
      result.detected = true;
      result.detected_seed = seed;
      std::ostringstream out;
      out << "seed " << seed << ": corrupt table steered " << origin << " -> "
          << destination << " to cost "
          << (by_corrupt.has_value()
                  ? by_corrupt->end_time() - by_corrupt->start_time()
                  : static_cast<TimeStep>(-1))
          << " vs optimal "
          << by_manhattan->end_time() - by_manhattan->start_time();
      result.detail = out.str();
      return result;
    }
  }
  result.detail = "no scenario produced a cost mismatch within the budget";
  return result;
}

EngineFaultResult RunEngineFaultCalibration(int max_seeds) {
  EngineFaultResult result;
  const layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetByName("tiny"));
  const core::WarehouseMatrix& matrix = warehouse.matrix;

  core::SpaceTimeAStarOptions opts;
  opts.horizon = 4 * (matrix.height() + matrix.width());

  for (std::uint64_t seed = 1;
       seed <= static_cast<std::uint64_t>(max_seeds); ++seed) {
    ++result.seeds_tried;
    Rng rng(seed);
    const GridCoord origin = warehouse.pickers[rng.UniformU32(
        static_cast<std::uint32_t>(warehouse.pickers.size()))];
    const GridCoord destination = warehouse.rack_access[rng.UniformU32(
        static_cast<std::uint32_t>(warehouse.rack_access.size()))];
    if (origin == destination) continue;

    core::SpaceTimeAStar astar(matrix);
    core::SippAStar sipp(matrix);

    // The unobstructed optimal arrival d — then park a robot on the
    // destination over exactly [d, d + 40]. The destination's first free
    // interval now ends at d - 1, and that bound is load-bearing: the
    // clean engines must wait out the dwell, while the overwide fault
    // widens the interval to include d itself — an arrival that is both
    // cheaper than the oracle's answer and a collision with the dweller.
    core::ReservationTable table;
    const auto unobstructed = astar.Plan(table, 0, origin, destination, opts);
    if (!unobstructed.has_value()) continue;
    const TimeStep d = unobstructed->end_time();
    if (d <= 0) continue;
    std::vector<core::Route> committed;
    committed.emplace_back(d, std::vector<GridCoord>(41, destination));
    table.Reserve(0, committed.back());

    const auto by_astar = astar.Plan(table, 0, origin, destination, opts);
    const auto clean = sipp.Plan(table, 0, origin, destination, opts);
    if (!by_astar.has_value() || !clean.has_value() ||
        by_astar->end_time() != clean->end_time()) {
      result.detail = "clean control diverged — harness bug, not detection";
      return result;
    }

    core::SafeIntervalMap::SetOverwideFaultForTest(true);
    const auto faulty = sipp.Plan(table, 0, origin, destination, opts);
    core::SafeIntervalMap::SetOverwideFaultForTest(false);

    bool collides = false;
    if (faulty.has_value()) {
      std::vector<core::Route> probe = committed;
      probe.push_back(*faulty);
      collides = !core::ValidateRoutes(probe);
    }
    if (!faulty.has_value() || faulty->end_time() != by_astar->end_time() ||
        collides) {
      result.detected = true;
      result.detected_seed = seed;
      std::ostringstream out;
      out << "seed " << seed << ": overwide interval steered " << origin
          << " -> " << destination << " to cost "
          << (faulty.has_value()
                  ? faulty->end_time() - faulty->start_time()
                  : static_cast<TimeStep>(-1))
          << " vs oracle " << by_astar->end_time() - by_astar->start_time()
          << (collides ? " (and the route collides)" : "");
      result.detail = out.str();
      return result;
    }
  }
  result.detail = "no scenario tripped the cost/collision audit within budget";
  return result;
}

}  // namespace carp::check
