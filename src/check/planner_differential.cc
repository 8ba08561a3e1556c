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

  // ---- 1) Every backend through the same simulated day, under every
  // requested thread count: the run must validate collision-free, drain,
  // and keep its lifecycle accounting consistent.
  std::map<std::pair<std::string, int>, sim::RunMetrics> metrics;
  for (const std::string& backend : Backends()) {
    for (int threads : opt.thread_counts) {
      auto planner = baselines::MakePlanner(backend, warehouse.matrix);
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
      bopts.sharded_commit = false;  // the sharded pipeline is phase 3b's job
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
    auto serial = baselines::MakePlanner(backend, warehouse.matrix);
    core::PlanBatch(*serial, 0, queries);
    for (int threads : opt.thread_counts) {
      if (threads <= 1) continue;
      auto spec = baselines::MakePlanner(backend, warehouse.matrix);
      auto sharded = baselines::MakePlanner(backend, warehouse.matrix);
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

  return result;
}

}  // namespace carp::check
