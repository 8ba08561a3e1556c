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
  return {"SAP", "RP", "TWP", "ACP", "SRP", "SRP-indexed"};
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

  // One simulated day on a fresh `backend` planner: the run must validate
  // collision-free, drain, and keep its lifecycle accounting consistent.
  // Returns an empty string when the day checks out.
  auto run_day = [&](const layout::Warehouse& w,
                     const std::vector<workload::DeliveryTask>& day,
                     const std::string& backend, int threads,
                     const std::string& tag, sim::RunMetrics& m,
                     std::int64_t& speculative_routes) -> std::string {
    auto planner = baselines::MakePlanner(backend, w.matrix);
    if (planner == nullptr) return "unknown backend " + backend;

    sim::SimulatorOptions sopts;
    sopts.validate = true;
    sopts.threads = threads;
    sopts.retire_routes = opt.retire_routes;
    sopts.prune_every = opt.prune_every;
    sopts.prune_slack = opt.prune_slack;
    sim::Simulator sim(w, *planner, sopts);
    m = sim.Run(day);
    speculative_routes = planner->stats().speculative_routes;

    if (!m.validated || !m.collision_free) {
      return tag + ": committed route set is NOT collision-free";
    }
    if (m.finished_tasks != m.total_tasks) {
      std::ostringstream what;
      what << tag << ": finished " << m.finished_tasks << " of "
           << m.total_tasks << " tasks";
      return what.str();
    }
    if (opt.retire_routes) {
      // Live-route accounting: every stage route retires as its robot
      // finishes, so a drained day leaves nothing live...
      if (m.end_live_routes != 0 || planner->live_routes() != 0) {
        std::ostringstream what;
        what << tag << ": " << m.end_live_routes
             << " routes still live after the day drained";
        return what.str();
      }
      if (m.routes_released <= 0) {
        return tag + ": retirement on but no route released";
      }
      // ...and SRP's exact release leaves the segment stores empty.
      if (auto* srp = dynamic_cast<srp::SrpPlanner*>(planner.get())) {
        if (srp->SegmentCount() != 0) {
          std::ostringstream what;
          what << tag << ": " << srp->SegmentCount()
               << " segments leaked after all routes retired";
          return what.str();
        }
        if (std::string err = srp->CheckInvariants(); !err.empty()) {
          return tag + ": " + err;
        }
      }
    }
    return {};
  };

  // ---- 1) Every backend through the same simulated day, under every
  // requested thread count.
  std::map<std::pair<std::string, int>, sim::RunMetrics> metrics;
  for (const std::string& backend : Backends()) {
    for (int threads : opt.thread_counts) {
      std::ostringstream tag;
      tag << backend << " threads=" << threads;
      sim::RunMetrics m;
      std::int64_t speculative_routes = 0;
      if (std::string err = run_day(warehouse, tasks, backend, threads,
                                    tag.str(), m, speculative_routes);
          !err.empty()) {
        return fail(err);
      }
      metrics[{backend, threads}] = std::move(m);
    }
  }

  // ---- 2) Store ablation differential: the slope index is a drop-in
  // replacement for the default sorted store, so SRP and SRP-indexed must
  // produce identical days.
  for (int threads : opt.thread_counts) {
    const sim::RunMetrics& sorted = metrics[{"SRP", threads}];
    const sim::RunMetrics& indexed = metrics[{"SRP-indexed", threads}];
    if (sorted.makespan != indexed.makespan ||
        sorted.routes_released != indexed.routes_released) {
      std::ostringstream what;
      what << "SRP vs SRP-indexed diverged at threads=" << threads
           << ": makespan " << sorted.makespan << " vs " << indexed.makespan
           << ", released " << sorted.routes_released << " vs "
           << indexed.routes_released;
      return fail(what.str());
    }
  }
  {
    const auto queries = MakeQueries(warehouse, 24, opt.seed);
    srp::SrpPlanner sorted(warehouse.matrix);
    srp::SrpPlannerOptions indexed_opts;
    indexed_opts.use_slope_index = true;
    srp::SrpPlanner indexed(warehouse.matrix, indexed_opts);
    core::PlanBatch(sorted, 0, queries);
    core::PlanBatch(indexed, 0, queries);
    if (sorted.committed_routes() != indexed.committed_routes()) {
      return fail("SRP vs SRP-indexed PlanBatch route sets diverged");
    }
  }

  // ---- 3) Serial-vs-speculative differential, every backend: PlanBatch's
  // validate-then-commit pipeline must commit a collision-free route set,
  // and for backends whose speculative query phase is their exact serial
  // search (SAP and the SRP variants) it must reproduce the serial
  // prioritized loop — the one determinism promise across thread counts.
  // SRP additionally proves its state: clean store/counter invariants and
  // the serial loop's segment count.
  for (const std::string& backend : Backends()) {
    const auto queries = MakeQueries(warehouse, 24, opt.seed + 1);
    auto serial = baselines::MakePlanner(backend, warehouse.matrix);
    core::PlanBatch(*serial, 0, queries);
    if (!core::ValidateRoutes(serial->committed_routes())) {
      return fail(backend +
                  ": serial PlanBatch route set is NOT collision-free");
    }
    const bool exact_speculation =
        backend == "SAP" || backend.rfind("SRP", 0) == 0;
    for (int threads : opt.thread_counts) {
      if (threads <= 1) continue;
      auto speculative = baselines::MakePlanner(backend, warehouse.matrix);
      core::BatchPlanOptions bopts;
      bopts.threads = threads;
      // One wave holding the whole batch: the auto wave (at least 16
      // queries) is larger than the batch on presets with few pickers and
      // would plan it serially.
      bopts.wave_size = static_cast<int>(queries.size());
      const core::BatchResult batch =
          core::PlanBatch(*speculative, 0, queries, bopts);

      std::ostringstream tag;
      tag << backend << " threads=" << threads;
      if (batch.speculated == 0) {
        return fail(tag.str() + ": speculative PlanBatch speculated no route");
      }
      if (!core::ValidateRoutes(speculative->committed_routes())) {
        return fail(tag.str() +
                    ": speculative PlanBatch route set is NOT collision-free");
      }
      if (exact_speculation &&
          speculative->committed_routes() != serial->committed_routes()) {
        return fail(tag.str() +
                    ": speculative PlanBatch diverged from the serial loop");
      }
      if (auto* srp = dynamic_cast<srp::SrpPlanner*>(speculative.get())) {
        if (std::string err = srp->CheckInvariants(); !err.empty()) {
          return fail(tag.str() + ": speculative state: " + err);
        }
        auto* srp_serial = dynamic_cast<srp::SrpPlanner*>(serial.get());
        if (srp_serial != nullptr &&
            srp->SegmentCount() != srp_serial->SegmentCount()) {
          std::ostringstream what;
          what << tag.str() << ": speculative stores hold "
               << srp->SegmentCount() << " segments, serial holds "
               << srp_serial->SegmentCount();
          return fail(what.str());
        }
      }
    }
  }

  // ---- 4) Speculative batched dispatch through the simulator. The
  // simulator hands PlanBatch one batch per timestep, and PlanBatch only
  // speculates a batch that fills one auto wave (max(16, 4 x threads)
  // queries), so the day of phase 1 (a few arrivals per timestep) plans
  // serially even at threads > 1. Here every task arrives at t = 0 on the
  // 64-robot "small" preset: the first timestep dispatches a full wave,
  // which must speculate, commit collision-free, retire and drain like any
  // serially planned day, and SRP-indexed must still match SRP.
  const layout::Warehouse burst_warehouse =
      layout::GenerateWarehouse(layout::PresetSmall());
  for (int threads : opt.thread_counts) {
    if (threads <= 1) continue;
    PlannerDiffOptions burst_opt = opt;
    burst_opt.tasks = std::max(opt.tasks, std::max(16, 4 * threads));
    if (static_cast<std::size_t>(burst_opt.tasks) >
        burst_warehouse.robot_homes.size()) {
      std::ostringstream what;
      what << "burst day at threads=" << threads << " needs "
           << burst_opt.tasks << " robots, the small preset has "
           << burst_warehouse.robot_homes.size();
      return fail(what.str());
    }
    auto burst = MakeTasks(burst_warehouse, burst_opt);
    for (auto& t : burst) t.arrival = 0;

    std::map<std::string, sim::RunMetrics> burst_metrics;
    for (const std::string& backend : Backends()) {
      std::ostringstream tag;
      tag << backend << " burst threads=" << threads;
      sim::RunMetrics m;
      std::int64_t speculative_routes = 0;
      if (std::string err = run_day(burst_warehouse, burst, backend, threads,
                                    tag.str(), m, speculative_routes);
          !err.empty()) {
        return fail(err);
      }
      if (speculative_routes == 0) {
        return fail(tag.str() + ": batched dispatch speculated no route");
      }
      burst_metrics[backend] = std::move(m);
    }
    const sim::RunMetrics& sorted = burst_metrics["SRP"];
    const sim::RunMetrics& indexed = burst_metrics["SRP-indexed"];
    if (sorted.makespan != indexed.makespan ||
        sorted.routes_released != indexed.routes_released) {
      std::ostringstream what;
      what << "SRP vs SRP-indexed diverged on the burst day at threads="
           << threads << ": makespan " << sorted.makespan << " vs "
           << indexed.makespan;
      return fail(what.str());
    }
  }

  return result;
}

}  // namespace carp::check
