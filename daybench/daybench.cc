// The operating-day benchmark: runs one workload against the unmodified
// libraries, checks every output, and prints one JSON object with the
// end-to-end metrics (untraced) or the per-layer metrics (--trace 1).
//
//   daybench --workload w3-peak-day|w1-longrun|w2-service --seed N
//            --seconds S --trace 0|1 [--spans FILE]
//
// Workloads (README.md has the reasons):
//   w3-peak-day  W-3 Table II Day 4; SRP and SAP each plan the identical
//                task stream in the serial simulator, no route retirement.
//   w1-longrun   W-1, five consecutive days on one long-lived planner, on
//                one clock with route retirement and pruning on (SRP, then
//                SAP on the same days).
//   w2-service   W-2 Day 1 requests of all three stage types through a
//                3-worker PlannerService over SRP: an open-loop pass on a
//                fixed replay schedule, then the whole stream offered at
//                once (SRP, then SAP).
//
// Every planner comes from baselines::MakePlanner with its defaults, and
// the service from ServiceOptions defaults plus its worker count. A run
// plans several task streams and replays each (a "rep": set-up, plan,
// check) until --seconds is spent; the metrics combine the replays of a
// stream by medians and the streams by means. With --trace 1 untraced and
// traced replays alternate; the traced ones give the per-layer metrics,
// and every replay must reproduce its stream's deterministic outputs.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/planner_factory.h"
#include "common/stats.h"
#include "core/collision.h"
#include "core/kernel_dispatch.h"
#include "core/search_engine.h"
#include "core/search_queue.h"
#include "layout/layout_generator.h"
#include "service/planner_service.h"
#include "sim/simulator.h"
#include "span_log.h"
#include "traced_planner.h"
#include "workload/request_stream.h"
#include "workload/scenario.h"
#include "workload/task_generator.h"

extern char** environ;

namespace daybench {
namespace {

using carp::GridCoord;
using carp::TimeStep;
using carp::core::PlannerStats;
using carp::core::Route;
using Day = std::vector<carp::workload::DeliveryTask>;

constexpr double kMiB = 1024.0 * 1024.0;

struct Workload {
  std::string name;
  std::string scenario;  // Table II warehouse
  double scale;          // fraction of the paper's task counts and day
  int first_day;         // 0-based Table II day
  int days;              // consecutive days on one continuous clock
  bool retire;           // route retirement + pruning in the simulator
  TimeStep prune_every;  // simulator prune cadence when retiring
  bool service;          // PlannerService workload
  std::int64_t tick_us;  // open loop: replay-clock time per simulated step
  int streams;           // independent task streams per run
  int replays;           // minimum untraced replays of each stream per run
};

// Scales are sized so one rep takes a few seconds on a 4-core x86 host
// while each workload keeps the property it was chosen for (README.md).
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"w3-peak-day", "W-3", 0.003, 3, 1, false, 0, false, 0, 3, 2},
      {"w1-longrun", "W-1", 0.004, 0, 5, true, 512, false, 0, 4, 3},
      {"w2-service", "W-2", 0.006, 0, 1, false, 0, true, 25000, 4, 2},
  };
  return kWorkloads;
}

constexpr int kServiceThreads = 3;
constexpr TimeStep kDaySpacing = 4;
constexpr int kSetupRepeats = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string spans_path;
};

double Median(std::vector<double> v) { return carp::Percentile(v, 0.5); }

std::uint64_t Mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-independent digest of a route set (a sum of per-route hashes).
std::uint64_t Fingerprint(const std::vector<Route>& routes) {
  std::uint64_t digest = 0;
  for (const Route& r : routes) {
    std::uint64_t h = Mix64(static_cast<std::uint64_t>(r.start_time()));
    for (const GridCoord& c : r.cells()) {
      h = Mix64(h ^ ((static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(c.row))
                      << 32) |
                     static_cast<std::uint32_t>(c.col)));
    }
    digest += h;
  }
  return digest;
}

/// Correctness findings of a run; any finding makes the run incorrect.
struct Check {
  std::vector<std::string> errors;
  void Expect(bool ok, const std::string& what) {
    if (!ok && errors.size() < 32) errors.push_back(what);
  }
};

/// What a traced rep's per-layer metrics are derived from, besides its
/// spans.
struct LayerInputs {
  PlannerStats srp;  // summed over the rep's SRP planners
  PlannerStats sap;
  double srp_heuristic_mib = 0;
  std::int64_t waves = 0;
  double queue_wait_p99_ms = 0;
  double generator_lag_max_ms = 0;
  std::int64_t open_loop_start_ns = 0;
  std::int64_t open_loop_end_ns = 0;
};

/// Per-rep results. `exact` holds the outputs that must repeat bit for bit
/// on every replay of a stream, traced or not; `layers` holds the per-layer
/// metrics of a traced rep.
struct Rep {
  int stream = 0;
  bool traced = false;
  double wall_s = 0;
  std::vector<double> setup_s;
  // Simulator workloads: per-PlanRoute latencies of SRP and SAP in call
  // order, and the time each spent in ReleaseRoute/PruneBefore. Service:
  // per-request open-loop latencies, and the whole-stream pass times.
  std::vector<double> latency_us;
  std::vector<double> sap_latency_us;
  double lifecycle_s = 0;
  double sap_lifecycle_s = 0;
  double tc_s = 0;
  double sap_tc_s = 0;
  double makespan = 0;
  double peak_mc_mib = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> exact;
  std::map<std::string, double> layers;
  LayerInputs inputs;
  std::vector<Span> spans;
  std::string srp_kernel;
  std::string srp_engine;
};

/// What a rep sets up before it plans: the warehouse, SRP and SAP, and on
/// the service workload a PlannerService over SRP.
struct Setup {
  carp::layout::Warehouse wh;
  std::unique_ptr<carp::core::Planner> srp;
  std::unique_ptr<carp::core::Planner> sap;
};

carp::service::ServiceOptions MakeServiceOptions() {
  carp::service::ServiceOptions options;
  options.threads = kServiceThreads;
  return options;
}

/// Builds the set-up kSetupRepeats times, appending each build's time to
/// `samples`, and returns the last build.
Setup MeasureSetup(const Workload& w, const carp::workload::Scenario& scenario,
                   SpanLog* log, std::vector<double>& samples) {
  Setup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    // The planners reference the warehouse: drop them before replacing it.
    setup.sap.reset();
    setup.srp.reset();
    const std::int64_t t0 = NowNs();
    {
      ScopedSpan span(log, "layout.generate");
      setup.wh = carp::layout::GenerateWarehouse(scenario.layout);
    }
    {
      ScopedSpan span(log, "srp.construct");
      setup.srp = carp::baselines::MakePlanner("SRP", setup.wh.matrix);
    }
    {
      ScopedSpan span(log, "baselines.sap.construct");
      setup.sap = carp::baselines::MakePlanner("SAP", setup.wh.matrix);
    }
    std::unique_ptr<carp::service::PlannerService> svc;
    if (w.service) {
      ScopedSpan span(log, "service.construct");
      svc = std::make_unique<carp::service::PlannerService>(
          *setup.srp, MakeServiceOptions());
    }
    samples.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return setup;
}

/// Checks the history of one planner: every route collision-free against
/// every other, kinematically valid, starting at its query's origin no
/// earlier than the query emerged and ending at its destination; and the
/// planned/failed accounting adds up.
void CheckHistory(const std::vector<PlanCall>& calls,
                  const carp::core::WarehouseMatrix& matrix,
                  std::int64_t sim_failed, std::int64_t planner_queries,
                  const std::string& who, Check& check,
                  std::vector<Route>& history) {
  history.clear();
  std::int64_t failed = 0;
  for (const PlanCall& c : calls) {
    if (!c.route.has_value()) {
      ++failed;
      continue;
    }
    const Route& r = *c.route;
    check.Expect(!r.empty() && r.IsKinematicallyValid(matrix),
                 who + ": kinematically invalid route");
    check.Expect(r.start_time() >= c.now,
                 who + ": route starts before its query emerged");
    check.Expect(!r.empty() && r.origin() == c.origin,
                 who + ": route does not start at its origin");
    check.Expect(!r.empty() && r.destination() == c.destination,
                 who + ": route does not end at its destination");
    history.push_back(r);
  }
  const auto attempted = static_cast<std::int64_t>(calls.size());
  check.Expect(static_cast<std::int64_t>(history.size()) + failed == attempted,
               who + ": planned + failed != attempted");
  check.Expect(failed == sim_failed,
               who + ": simulator and planner disagree on failures");
  check.Expect(planner_queries == attempted,
               who + ": planner query count != calls made");
  check.Expect(carp::core::RouteSetValidator::IsCollisionFree(history),
               who + ": history is not collision-free");
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

void FillLayers(const LayerInputs& in, Rep& rep) {
  auto& L = rep.layers;
  const PlannerStats& s = in.srp;
  const double srp_demand_build =
      s.heuristic_build_seconds - s.heuristic_prefetch_build_seconds;
  const double sap_demand_build =
      in.sap.heuristic_build_seconds - in.sap.heuristic_prefetch_build_seconds;
  L["core.heuristic.builds"] = static_cast<double>(s.heuristic_misses);
  L["core.heuristic.rebuilds"] = static_cast<double>(s.heuristic_rebuilds);
  L["core.heuristic.evictions"] = static_cast<double>(s.heuristic_evictions);
  L["core.heuristic.hit_frac"] = s.HeuristicHitRate();
  L["core.heuristic.mib"] = in.srp_heuristic_mib;
  L["core.heuristic.prefetch_late"] =
      static_cast<double>(s.heuristic_prefetch_late);
  L["srp.queries"] = static_cast<double>(s.queries);
  L["srp.expanded"] = static_cast<double>(s.expanded_nodes);
  L["srp.fallbacks"] = static_cast<double>(s.fallbacks);
  L["srp.fallback_frac"] = Ratio(static_cast<double>(s.fallbacks),
                                 static_cast<double>(s.queries));
  L["srp.candidates"] = static_cast<double>(s.candidates_examined);
  L["srp.block_skip_frac"] = s.BlockSkipRate();
  L["srp.summary_pruned"] =
      static_cast<double>(s.candidates_pruned_by_summary);
  L["srp.lane_survival_frac"] = s.LaneUtilization();
  L["srp.releases"] = static_cast<double>(s.routes_released);
  L["core.buckets_erased"] = static_cast<double>(s.buckets_erased);
  L["baselines.sap.expanded"] = static_cast<double>(in.sap.expanded_nodes);
  L["core.batch.speculated"] = static_cast<double>(s.speculative_routes);
  L["core.batch.invalidated_frac"] = s.SpeculationConflictRate();
  L["core.shard.contention_frac"] = s.ShardContentionRate();
  L["core.shard.retries"] = static_cast<double>(s.shard_commit_retries);
  L["service.waves"] = static_cast<double>(in.waves);
  L["service.queue_wait_p99_ms"] = in.queue_wait_p99_ms;
  L["service.generator_lag_max_ms"] = in.generator_lag_max_ms;

  // Time layers: self time of each layer's spans (SelfSeconds), with the
  // heuristic builds measured inside plan calls split out of search.
  const std::map<std::string, double> self = SelfSeconds(rep.spans);
  auto self_of = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  L["layout.generate_s"] = self_of("layout.generate");
  L["srp.construct_s"] = self_of("srp.construct");
  L["baselines.sap.construct_s"] = self_of("baselines.sap.construct");
  L["service.construct_s"] = self_of("service.construct");
  L["core.heuristic.build_s"] = srp_demand_build;
  L["core.heuristic.prefetch_build_s"] = s.heuristic_prefetch_build_seconds;
  L["srp.search_s"] = self_of("srp.plan") - srp_demand_build;
  L["srp.release_s"] = self_of("srp.release");
  L["srp.prune_s"] = self_of("srp.prune");
  L["baselines.sap.build_s"] = sap_demand_build;
  L["baselines.sap.search_s"] =
      self_of("baselines.sap.plan") - sap_demand_build;
  L["baselines.sap.lifecycle_s"] =
      self_of("baselines.sap.release") + self_of("baselines.sap.prune");
  L["core.batch.commit_s"] = self_of("core.batch.commit");
  L["service.step_self_s"] = self_of("service.step");
  L["service.submit_s"] = self_of("service.submit");
  L["sim.self_s"] = self_of("sim.run");
  L["check.validate_s"] = self_of("check.validate");

  double fallback_s = 0;
  double query_busy_s = 0;
  double worker_busy_open_loop = 0;
  double step_open_loop = 0;
  for (const Span& sp : rep.spans) {
    const bool plan = sp.name == "srp.plan" || sp.name == "baselines.sap.plan";
    if (sp.name == "srp.plan" && sp.has_stats &&
        sp.after.fallbacks > sp.before.fallbacks) {
      fallback_s += sp.seconds();
    }
    if (sp.worker && plan) query_busy_s += sp.seconds();
    const bool in_open_loop = sp.start_ns >= in.open_loop_start_ns &&
                              sp.end_ns <= in.open_loop_end_ns;
    if (in_open_loop && sp.worker) worker_busy_open_loop += sp.seconds();
    if (in_open_loop && sp.name == "service.step") {
      step_open_loop += sp.seconds();
    }
  }
  L["srp.fallback_s"] = fallback_s;
  L["core.batch.query_busy_s"] = query_busy_s;
  L["service.worker_busy_frac"] =
      Ratio(worker_busy_open_loop, kServiceThreads * step_open_loop);

  // Accounting: the layer self times plus the time under no layer span
  // (the root span's self time) make up the rep's wall time.
  const double unaccounted = self_of("bench.other");
  L["trace.snapshot_s"] = self_of("trace.snapshot");
  L["trace.wall_s"] = rep.wall_s;
  L["trace.unaccounted_s"] = unaccounted;
  L["trace.coverage_frac"] = 1.0 - Ratio(unaccounted, rep.wall_s);
}

// ---------------------------------------------------------------------------
// Simulator workloads (w3-peak-day, w1-longrun)

struct BackendDay {
  std::vector<double> latency_us;
  double lifecycle_s = 0;
  std::int64_t makespan = 0;
  std::size_t peak_mc_bytes = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::uint64_t fingerprint = 0;
  PlannerStats stats;
};

BackendDay RunBackend(const Workload& w, const carp::layout::Warehouse& wh,
                      const std::vector<Day>& days, TimeStep day_spacing,
                      carp::core::Planner& inner, const std::string& layer,
                      SpanLog* log, Check& check) {
  TracedPlanner planner(inner, layer, log);
  carp::sim::SimulatorOptions options;
  options.validate = false;  // the benchmark checks the history itself
  options.retire_routes = w.retire;
  if (w.retire) options.prune_every = w.prune_every;
  carp::sim::Simulator simulator(wh, planner, options);

  BackendDay out;
  std::int64_t sim_failed = 0;
  for (std::size_t d = 0; d < days.size(); ++d) {
    carp::sim::RunMetrics m;
    {
      ScopedSpan span(log, "sim.run");
      m = simulator.Run(days[d]);
    }
    // OG of Eq. 1 per day, measured from the day's start on the clock.
    const TimeStep day_start = static_cast<TimeStep>(d) * day_spacing;
    out.makespan += m.makespan - day_start;
    check.Expect(d + 1 == days.size() || m.makespan < day_start + day_spacing,
                 std::string(inner.name()) + ": a day ran into the next one");
    out.peak_mc_bytes = std::max(out.peak_mc_bytes, m.peak_mc_bytes);
    sim_failed += m.failed_queries;
  }
  out.stats = planner.stats();
  out.latency_us.reserve(planner.calls().size());
  for (const PlanCall& c : planner.calls()) {
    out.latency_us.push_back(static_cast<double>(c.ns) * 1e-3);
  }
  out.lifecycle_s = planner.lifecycle_seconds();
  out.attempted = static_cast<std::int64_t>(planner.calls().size());
  out.failed = sim_failed;

  ScopedSpan span(log, "check.validate");
  std::vector<Route> history;
  CheckHistory(planner.calls(), wh.matrix, sim_failed, out.stats.queries,
               std::string(inner.name()), check, history);
  out.fingerprint = Fingerprint(history);
  return out;
}

void RunSimulatorRep(const Workload& w, std::uint64_t stream_seed,
                     SpanLog* log, Check& check, Rep& rep) {
  const auto scenario = carp::workload::ScaledScenario(
      carp::workload::PaperScenario(w.scenario), w.scale);
  Setup setup = MeasureSetup(w, scenario, log, rep.setup_s);
  const carp::layout::Warehouse& wh = setup.wh;
  carp::core::Planner& srp = *setup.srp;
  carp::core::Planner& sap = *setup.sap;

  // Consecutive days sit on one clock, each starting kDaySpacing day
  // lengths after the previous one. A day's routes run well past its
  // nominal length under congestion, and a later day that started before
  // the earlier one finished would query behind routes already released
  // or pruned, which the ReleaseRoute/PruneBefore contract forbids.
  const TimeStep day_spacing = kDaySpacing * scenario.day_length;
  std::vector<Day> days;
  for (int d = 0; d < w.days; ++d) {
    const auto day = static_cast<std::size_t>(w.first_day + d);
    carp::workload::TaskGeneratorOptions topts;
    topts.task_count = scenario.daily_tasks[day];
    topts.day_length = scenario.day_length;
    topts.seed = stream_seed * 1000 + day;
    auto tasks = carp::workload::GenerateTasks(
        wh, carp::workload::ArrivalProfile::DoubleSurge(), topts);
    for (auto& t : tasks) t.arrival += d * day_spacing;
    days.push_back(std::move(tasks));
  }

  const BackendDay s =
      RunBackend(w, wh, days, day_spacing, srp, "srp", log, check);
  const BackendDay b =
      RunBackend(w, wh, days, day_spacing, sap, "baselines.sap", log, check);

  rep.latency_us = s.latency_us;
  rep.sap_latency_us = b.latency_us;
  rep.lifecycle_s = s.lifecycle_s;
  rep.sap_lifecycle_s = b.lifecycle_s;
  rep.makespan = static_cast<double>(s.makespan);
  rep.peak_mc_mib = static_cast<double>(s.peak_mc_bytes) / kMiB;
  rep.attempted = s.attempted + b.attempted;
  rep.failed = s.failed + b.failed;
  check.Expect(s.makespan > 0 && s.peak_mc_bytes > 0,
               "SRP planned nothing");

  rep.exact = {
      {"srp.fingerprint", static_cast<std::int64_t>(s.fingerprint)},
      {"sap.fingerprint", static_cast<std::int64_t>(b.fingerprint)},
      {"makespan", s.makespan},
      {"sap.makespan", b.makespan},
      {"peak_mc_bytes", static_cast<std::int64_t>(s.peak_mc_bytes)},
      {"failed", rep.failed},
      {"srp.expanded", s.stats.expanded_nodes},
      {"srp.fallbacks", s.stats.fallbacks},
      {"srp.candidates", s.stats.candidates_examined},
      {"srp.heuristic_builds", s.stats.heuristic_misses},
      {"sap.expanded", b.stats.expanded_nodes},
      {"sap.heuristic_builds", b.stats.heuristic_misses},
  };
  LayerInputs in;
  in.srp = s.stats;
  in.sap = b.stats;
  in.srp_heuristic_mib = static_cast<double>(s.stats.heuristic_bytes) / kMiB;
  rep.inputs = in;
  rep.srp_kernel = carp::core::ToString(s.stats.collision_kernel);
  rep.srp_engine = carp::core::ToString(s.stats.search_engine);
}

// ---------------------------------------------------------------------------
// Service workload (w2-service)

struct ServicePass {
  std::vector<Route> archive;
  std::int64_t planned = 0;
  std::int64_t failed = 0;
  double wall_s = 0;
  std::vector<double> latency_us;
  std::vector<double> queue_wait_ms;
  double generator_lag_max_ms = 0;
  std::size_t peak_mc_bytes = 0;
  std::int64_t waves = 0;
  PlannerStats stats;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One pass of the request stream through a fresh planner and service.
/// Both passes call Step(t) for every simulated step t in order, so the
/// waves, and hence the committed routes, do not depend on wall timing.
/// Open loop (`tick_ns` > 0): step t is due at (t - t_first) * tick_ns on
/// the replay clock; its requests are submitted when it is due, whatever
/// the backlog, and each is timed from its due time to the end of the Step
/// that planned it. Otherwise the whole stream is submitted at once and
/// the pass is timed as a whole.
ServicePass RunServicePass(const carp::layout::Warehouse& wh,
                           const std::vector<carp::service::PlanRequest>& reqs,
                           const std::string& algorithm,
                           const std::string& layer, std::int64_t tick_ns,
                           SpanLog* log) {
  std::unique_ptr<carp::core::Planner> inner;
  {
    ScopedSpan span(log, layer + ".construct");
    inner = carp::baselines::MakePlanner(algorithm, wh.matrix);
  }
  std::unique_ptr<TracedPlanner> traced;
  if (log != nullptr) {
    traced = std::make_unique<TracedPlanner>(*inner, layer, log);
  }
  carp::core::Planner& planner =
      traced != nullptr ? static_cast<carp::core::Planner&>(*traced) : *inner;
  std::unique_ptr<carp::service::PlannerService> svc;
  {
    ScopedSpan span(log, "service.construct");
    svc = std::make_unique<carp::service::PlannerService>(planner,
                                                          MakeServiceOptions());
  }

  ServicePass out;
  const TimeStep t_first = reqs.front().release_time;
  const TimeStep t_last = reqs.back().release_time;
  out.start_ns = NowNs();
  if (tick_ns == 0) {
    ScopedSpan span(log, "service.submit");
    for (const auto& r : reqs) svc->Submit(r);
  }
  // Replay clock of the open loop, in ns: it advances by the driving
  // thread's busy time (submits and Steps) and, when it is ahead of schedule,
  // jumps to the next wave's due time instead of sleeping, so a stall of
  // the host while the service would be idle costs nothing.
  std::int64_t clock = 0;
  std::size_t next = 0;
  for (TimeStep t = t_first; t <= t_last; ++t) {
    const std::size_t begin = next;
    while (next < reqs.size() && reqs[next].release_time == t) ++next;
    const bool busy = next > begin;
    const std::int64_t due = (t - t_first) * tick_ns;
    const std::int64_t busy_start = NowNs();
    if (tick_ns > 0 && busy) {
      clock = std::max(clock, due);
      out.generator_lag_max_ms = std::max(
          out.generator_lag_max_ms, static_cast<double>(clock - due) * 1e-6);
      ScopedSpan span(log, "service.submit");
      for (std::size_t i = begin; i < next; ++i) svc->Submit(reqs[i]);
    }
    if (traced != nullptr && busy) {
      std::map<std::pair<GridCoord, GridCoord>, std::int64_t> wave;
      for (std::size_t i = begin; i < next; ++i) {
        wave.emplace(std::make_pair(reqs[i].origin, reqs[i].destination),
                     reqs[i].id);
      }
      traced->SetWaveRequests(std::move(wave));
    }
    const std::int64_t step_start = clock + (NowNs() - busy_start);
    {
      ScopedSpan span(log, "service.step", /*ambient=*/true);
      svc->Step(t);
    }
    clock += NowNs() - busy_start;
    if (tick_ns > 0 && busy) {
      for (std::size_t i = begin; i < next; ++i) {
        out.latency_us.push_back(static_cast<double>(clock - due) * 1e-3);
        out.queue_wait_ms.push_back(static_cast<double>(step_start - due) *
                                    1e-6);
      }
      out.peak_mc_bytes = std::max(out.peak_mc_bytes, planner.RetainedBytes());
    }
  }
  out.end_ns = NowNs();
  out.wall_s = static_cast<double>(out.end_ns - out.start_ns) * 1e-9;
  CARP_CHECK(svc->queued() == 0) << "service did not drain";
  const auto& m = svc->metrics();
  out.planned = m.planned;
  out.failed = m.failed;
  out.waves = m.waves;
  out.archive = svc->archive();
  out.stats = planner.stats();
  return out;
}

/// Checks a service archive against the requests: collision-free, every
/// route kinematically valid and matched to a distinct request with the
/// same origin and destination that was released no later than the route
/// starts; planned + failed == requests.
void CheckArchive(const ServicePass& p,
                  const std::vector<carp::service::PlanRequest>& reqs,
                  const carp::core::WarehouseMatrix& matrix,
                  const std::string& who, Check& check) {
  check.Expect(carp::core::RouteSetValidator::IsCollisionFree(p.archive),
               who + ": archive is not collision-free");
  check.Expect(p.planned + p.failed == static_cast<std::int64_t>(reqs.size()),
               who + ": planned + failed != requests");
  check.Expect(static_cast<std::int64_t>(p.archive.size()) == p.planned,
               who + ": archive size != planned");
  std::map<std::pair<GridCoord, GridCoord>, std::vector<TimeStep>> open;
  for (const auto& r : reqs) {
    open[{r.origin, r.destination}].push_back(r.release_time);
  }
  std::map<std::pair<GridCoord, GridCoord>, std::vector<TimeStep>> starts;
  for (const Route& r : p.archive) {
    check.Expect(!r.empty() && r.IsKinematicallyValid(matrix),
                 who + ": kinematically invalid route");
    if (!r.empty()) starts[{r.origin(), r.destination()}].push_back(
        r.start_time());
  }
  for (auto& [od, s] : starts) {
    auto it = open.find(od);
    if (it == open.end() || it->second.size() < s.size()) {
      check.Expect(false, who + ": route with no matching request");
      continue;
    }
    // Earliest releases pair with earliest starts; each start must not
    // precede its paired release.
    std::sort(s.begin(), s.end());
    std::sort(it->second.begin(), it->second.end());
    for (std::size_t i = 0; i < s.size(); ++i) {
      check.Expect(it->second[i] <= s[i],
                   who + ": route starts before its request was released");
    }
  }
}

void RunServiceRep(const Workload& w, std::uint64_t stream_seed, SpanLog* log,
                   Check& check, Rep& rep) {
  const auto scenario = carp::workload::ScaledScenario(
      carp::workload::PaperScenario(w.scenario), w.scale);
  const Setup setup = MeasureSetup(w, scenario, log, rep.setup_s);
  const carp::layout::Warehouse& wh = setup.wh;

  const auto day = static_cast<std::size_t>(w.first_day);
  carp::workload::TaskGeneratorOptions topts;
  topts.task_count = scenario.daily_tasks[day];
  topts.day_length = scenario.day_length;
  topts.seed = stream_seed * 1000 + day;
  const auto tasks = carp::workload::GenerateTasks(
      wh, carp::workload::ArrivalProfile::DoubleSurge(), topts);
  std::vector<carp::service::PlanRequest> reqs;
  for (const auto& q : carp::workload::FlattenToQueries(wh, tasks)) {
    if (q.origin == q.destination) continue;
    carp::service::PlanRequest r;
    r.id = static_cast<std::int64_t>(reqs.size());
    r.release_time = q.emergence;
    r.origin = q.origin;
    r.destination = q.destination;
    reqs.push_back(r);
  }
  std::stable_sort(reqs.begin(), reqs.end(), [](const auto& a, const auto& b) {
    return a.release_time < b.release_time;
  });
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].id = static_cast<std::int64_t>(i);
  }

  const std::int64_t tick_ns = w.tick_us * 1000;
  const ServicePass open =
      RunServicePass(wh, reqs, "SRP", "srp", tick_ns, log);
  const ServicePass capacity =
      RunServicePass(wh, reqs, "SRP", "srp", 0, log);
  const ServicePass sap =
      RunServicePass(wh, reqs, "SAP", "baselines.sap", 0, log);

  {
    ScopedSpan span(log, "check.validate");
    CheckArchive(open, reqs, wh.matrix, "SRP open loop", check);
    CheckArchive(sap, reqs, wh.matrix, "SAP", check);
    check.Expect(open.archive == capacity.archive,
                 "SRP archive differs between the open-loop and the "
                 "whole-stream pass");
  }

  rep.tc_s = capacity.wall_s;
  rep.sap_tc_s = sap.wall_s;
  rep.latency_us = open.latency_us;
  TimeStep makespan = 0;
  for (const Route& r : open.archive) {
    makespan = std::max(makespan, r.finish_term());
  }
  rep.makespan = static_cast<double>(makespan);
  rep.peak_mc_mib = static_cast<double>(open.peak_mc_bytes) / kMiB;
  rep.attempted = static_cast<std::int64_t>(3 * reqs.size());
  rep.failed = open.failed + capacity.failed + sap.failed;
  rep.exact = {
      {"srp.fingerprint",
       static_cast<std::int64_t>(Fingerprint(open.archive))},
      {"sap.fingerprint", static_cast<std::int64_t>(Fingerprint(sap.archive))},
      {"makespan", makespan},
      {"failed", rep.failed},
      {"srp.expanded", open.stats.expanded_nodes},
      {"srp.fallbacks", open.stats.fallbacks},
      {"core.batch.speculated", open.stats.speculative_routes},
      {"core.batch.invalidated", open.stats.speculative_invalidated},
  };

  LayerInputs in;
  in.srp = open.stats;
  in.srp.Merge(capacity.stats);
  in.srp.speculative_routes =
      open.stats.speculative_routes + capacity.stats.speculative_routes;
  in.srp.speculative_invalidated = open.stats.speculative_invalidated +
                                   capacity.stats.speculative_invalidated;
  in.srp.buckets_erased =
      open.stats.buckets_erased + capacity.stats.buckets_erased;
  in.sap = sap.stats;
  in.srp_heuristic_mib =
      static_cast<double>(std::max(open.stats.heuristic_bytes,
                                   capacity.stats.heuristic_bytes)) /
      kMiB;
  in.waves = open.waves + capacity.waves;
  in.queue_wait_p99_ms = carp::Percentile(open.queue_wait_ms, 0.99);
  in.generator_lag_max_ms = open.generator_lag_max_ms;
  in.open_loop_start_ns = open.start_ns;
  in.open_loop_end_ns = open.end_ns;
  rep.inputs = in;
  rep.srp_kernel = carp::core::ToString(open.stats.collision_kernel);
  rep.srp_engine = carp::core::ToString(open.stats.search_engine);
}

// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, printed on every workload (0 where a layer does
// no work on that workload).
const std::vector<MetricDef>& LayerDefs() {
  static const std::vector<MetricDef> kDefs = {
      {"layout.generate_s", "s"},
      {"srp.construct_s", "s"},
      {"baselines.sap.construct_s", "s"},
      {"service.construct_s", "s"},
      {"core.heuristic.build_s", "s"},
      {"core.heuristic.builds", "count"},
      {"core.heuristic.rebuilds", "count"},
      {"core.heuristic.evictions", "count"},
      {"core.heuristic.hit_frac", "ratio"},
      {"core.heuristic.mib", "MiB"},
      {"core.heuristic.prefetch_build_s", "s"},
      {"core.heuristic.prefetch_late", "count"},
      {"srp.search_s", "s"},
      {"srp.queries", "count"},
      {"srp.expanded", "count"},
      {"srp.fallbacks", "count"},
      {"srp.fallback_frac", "ratio"},
      {"srp.fallback_s", "s"},
      {"srp.candidates", "count"},
      {"srp.block_skip_frac", "ratio"},
      {"srp.summary_pruned", "count"},
      {"srp.lane_survival_frac", "ratio"},
      {"srp.release_s", "s"},
      {"srp.releases", "count"},
      {"srp.prune_s", "s"},
      {"core.buckets_erased", "count"},
      {"baselines.sap.search_s", "s"},
      {"baselines.sap.expanded", "count"},
      {"baselines.sap.build_s", "s"},
      {"baselines.sap.lifecycle_s", "s"},
      {"core.batch.query_busy_s", "s"},
      {"core.batch.commit_s", "s"},
      {"core.batch.speculated", "count"},
      {"core.batch.invalidated_frac", "ratio"},
      {"core.shard.contention_frac", "ratio"},
      {"core.shard.retries", "count"},
      {"service.waves", "count"},
      {"service.step_self_s", "s"},
      {"service.submit_s", "s"},
      {"service.queue_wait_p99_ms", "ms"},
      {"service.worker_busy_frac", "ratio"},
      {"service.generator_lag_max_ms", "ms"},
      {"sim.self_s", "s"},
      {"check.validate_s", "s"},
      {"trace.snapshot_s", "s"},
      {"trace.wall_s", "s"},
      {"trace.unaccounted_s", "s"},
      {"trace.coverage_frac", "ratio"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kDefs;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// One JSON metric object: `value` with its sample count, and the
/// quartiles of the per-rep values `v` (`value` defaults to their median).
std::string MetricJson(const char* unit, const std::vector<double>& v,
                       std::optional<double> value = std::nullopt,
                       std::size_t samples = 0) {
  std::ostringstream out;
  out << std::setprecision(10) << "{\"value\": " << value.value_or(Median(v))
      << ", \"unit\": " << JsonString(unit)
      << ", \"samples\": " << (samples > 0 ? samples : v.size())
      << ", \"q1\": " << carp::Percentile(v, 0.25)
      << ", \"q3\": " << carp::Percentile(v, 0.75) << "}";
  return out.str();
}

bool ParseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--spans") {
      o.spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty();
}

int Main(int argc, char** argv) {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CARP_FORCE_", 11) == 0) {
      std::cerr << "daybench: refusing to run with " << *e
                << " set; the benchmark measures the defaults only\n";
      return 2;
    }
  }
  Options o;
  if (!ParseArgs(argc, argv, o)) {
    std::cerr << "usage: daybench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n";
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : Workloads()) {
    if (candidate.name == o.workload) w = &candidate;
  }
  if (w == nullptr) {
    std::cerr << "daybench: unknown workload " << o.workload << "\n";
    return 2;
  }

  // A run plans `streams` independent task streams and replays each:
  // `replays` untraced passes over all streams (in trace mode untraced and
  // traced passes alternate, at least one of each), then further passes
  // while --seconds lasts. Every replay of a stream must reproduce the
  // deterministic outputs of its first replay.
  const int min_passes = o.trace ? 2 : w->replays;
  std::vector<Rep> reps;
  Check check;
  const std::int64_t start = NowNs();
  for (int pass = 0;; ++pass) {
    const std::int64_t pass_start = NowNs();
    for (int stream = 0; stream < w->streams; ++stream) {
      Rep rep;
      rep.stream = stream;
      rep.traced = o.trace && pass % 2 == 1;
      const std::uint64_t stream_seed =
          o.seed * 100 + static_cast<std::uint64_t>(stream);
      SpanLog log;
      SpanLog* log_ptr = rep.traced ? &log : nullptr;
      const std::int64_t t0 = NowNs();
      {
        ScopedSpan root(log_ptr, "bench.other");
        if (w->service) {
          RunServiceRep(*w, stream_seed, log_ptr, check, rep);
        } else {
          RunSimulatorRep(*w, stream_seed, log_ptr, check, rep);
        }
      }
      rep.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
      if (rep.traced) {
        rep.spans = log.Take();
        FillLayers(rep.inputs, rep);
      }
      reps.push_back(std::move(rep));
    }
    const std::int64_t now = NowNs();
    const double elapsed = static_cast<double>(now - start) * 1e-9;
    const double last_pass = static_cast<double>(now - pass_start) * 1e-9;
    if (pass + 1 >= min_passes && elapsed + last_pass > o.seconds) break;
  }

  // Replays of one stream, untraced or traced.
  auto replays_of = [&](int stream, bool traced) {
    std::vector<const Rep*> out;
    for (const Rep& r : reps) {
      if (r.stream == stream && r.traced == traced) out.push_back(&r);
    }
    return out;
  };
  for (const Rep& r : reps) {
    const Rep& first = *replays_of(r.stream, false).front();
    for (const auto& [key, value] : first.exact) {
      const auto it = r.exact.find(key);
      check.Expect(it != r.exact.end() && it->second == value,
                   std::string(r.traced ? "traced" : "untraced") +
                       " replay of stream " + std::to_string(r.stream) +
                       " differs from its first replay in " + key);
    }
  }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::ostringstream json;
  json << std::setprecision(10);
  json << "{\"correct\": " << (check.errors.empty() ? "true" : "false")
       << ", \"errors\": [";
  for (std::size_t i = 0; i < check.errors.size(); ++i) {
    json << (i ? ", " : "") << JsonString(check.errors[i]);
  }
  json << "], \"attempted\": " << attempted << ", \"failed\": " << failed;

  std::size_t traced_reps = 0;
  for (const Rep& r : reps) traced_reps += r.traced ? 1 : 0;
  json << ", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"kernel\": "
       << JsonString(carp::core::ToString(carp::core::ResolveCollisionKernel(
              carp::core::CollisionKernel::kAuto)))
       << ", \"queue\": "
       << JsonString(carp::core::ToString(
              carp::core::ResolveSearchQueue(carp::core::SearchQueue::kAuto)))
       << ", \"engine\": "
       << JsonString(carp::core::ToString(carp::core::ResolveSearchEngine(
              carp::core::SearchEngine::kAuto)))
       << ", \"srp_kernel\": " << JsonString(reps.front().srp_kernel)
       << ", \"srp_engine\": " << JsonString(reps.front().srp_engine)
       << ", \"workload\": " << JsonString(w->name) << ", \"seed\": " << o.seed
       << ", \"scale\": " << w->scale << ", \"streams\": " << w->streams
       << ", \"reps\": " << reps.size()
       << ", \"traced_reps\": " << traced_reps
       << ", \"service_threads\": " << kServiceThreads
       << ", \"tick_us\": " << w->tick_us << "}";

  json << ", \"metrics\": {";
  if (!o.trace) {
    // Per stream: each planner call's latency is the median over the
    // stream's replays, so a burst of interference on the host during one
    // replay does not reach the result; TC is the sum of those medians
    // (plus the median release/prune time). Run values are means over
    // streams; latency percentiles pool the calls of every stream.
    struct StreamResult {
      double tc_s = 0;
      double sap_tc_s = 0;
      std::vector<double> latency_us;
      double makespan = 0;
      double peak_mc_mib = 0;
    };
    auto per_call_median = [&](const std::vector<const Rep*>& rs,
                               std::vector<double> Rep::*member) {
      std::vector<double> out((rs.front()->*member).size());
      for (const Rep* r : rs) {
        check.Expect((r->*member).size() == out.size(),
                     "replays of a stream made different numbers of calls");
        if ((r->*member).size() != out.size()) return out;
      }
      std::vector<double> samples(rs.size());
      for (std::size_t q = 0; q < out.size(); ++q) {
        for (std::size_t k = 0; k < rs.size(); ++k) {
          samples[k] = (rs[k]->*member)[q];
        }
        out[q] = Median(samples);
      }
      return out;
    };
    auto median_of = [](const std::vector<const Rep*>& rs,
                        double Rep::*member) {
      std::vector<double> v;
      for (const Rep* r : rs) v.push_back(r->*member);
      return Median(v);
    };
    auto sum = [](const std::vector<double>& v) {
      double total = 0;
      for (const double x : v) total += x;
      return total;
    };
    std::vector<StreamResult> streams;
    for (int stream = 0; stream < w->streams; ++stream) {
      const std::vector<const Rep*> rs = replays_of(stream, false);
      StreamResult sr;
      sr.latency_us = per_call_median(rs, &Rep::latency_us);
      if (w->service) {
        sr.tc_s = median_of(rs, &Rep::tc_s);
        sr.sap_tc_s = median_of(rs, &Rep::sap_tc_s);
      } else {
        sr.tc_s = sum(sr.latency_us) * 1e-6 + median_of(rs, &Rep::lifecycle_s);
        sr.sap_tc_s = sum(per_call_median(rs, &Rep::sap_latency_us)) * 1e-6 +
                      median_of(rs, &Rep::sap_lifecycle_s);
      }
      sr.makespan = rs.front()->makespan;
      sr.peak_mc_mib = rs.front()->peak_mc_mib;
      streams.push_back(std::move(sr));
    }
    auto per_stream = [&](auto field) {
      std::vector<double> v;
      for (const StreamResult& sr : streams) v.push_back(field(sr));
      return v;
    };
    auto mean_json = [&](const char* unit, auto field) {
      const std::vector<double> v = per_stream(field);
      return MetricJson(unit, v, sum(v) / static_cast<double>(v.size()));
    };
    std::vector<double> setup;
    std::vector<double> latency;
    double calls = 0;
    double tc_total = 0;
    for (const Rep& r : reps) {
      setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    }
    for (const StreamResult& sr : streams) {
      latency.insert(latency.end(), sr.latency_us.begin(), sr.latency_us.end());
      calls += static_cast<double>(sr.latency_us.size());
      tc_total += sr.tc_s;
    }
    auto latency_json = [&](double q) {
      return MetricJson("us", per_stream([q](const StreamResult& sr) {
                          return carp::Percentile(sr.latency_us, q);
                        }),
                        carp::Percentile(latency, q), latency.size());
    };
    json << "\"setup_s\": " << MetricJson("s", setup)
         << ", \"tc_s\": "
         << mean_json("s", [](const StreamResult& sr) { return sr.tc_s; })
         << ", \"sap_tc_s\": "
         << mean_json("s", [](const StreamResult& sr) { return sr.sap_tc_s; })
         << ", \"latency_p50_us\": " << latency_json(0.50)
         << ", \"latency_p99_us\": " << latency_json(0.99)
         << ", \"capacity_rps\": "
         << MetricJson("1/s", per_stream([](const StreamResult& sr) {
                         return Ratio(static_cast<double>(sr.latency_us.size()),
                                      sr.tc_s);
                       }),
                       Ratio(calls, tc_total))
         << ", \"makespan\": "
         << mean_json("steps",
                      [](const StreamResult& sr) { return sr.makespan; })
         << ", \"peak_mc_mib\": "
         << mean_json("MiB",
                      [](const StreamResult& sr) { return sr.peak_mc_mib; })
         << ", \"rss_peak_mib\": " << MetricJson("MiB", {rss_mib});
  } else {
    // Per stream: the median over its traced replays (the overhead ratio:
    // traced over untraced median wall time); run values are means over
    // streams.
    auto stream_mean = [&](auto value_of_stream) {
      std::vector<double> v;
      for (int stream = 0; stream < w->streams; ++stream) {
        v.push_back(value_of_stream(stream));
      }
      double total = 0;
      for (const double x : v) total += x;
      return std::make_pair(v, total / static_cast<double>(v.size()));
    };
    auto median_wall = [&](int stream, bool traced) {
      std::vector<double> v;
      for (const Rep* r : replays_of(stream, traced)) v.push_back(r->wall_s);
      return Median(v);
    };
    bool first = true;
    for (const MetricDef& def : LayerDefs()) {
      const std::string name = def.name;
      const auto [v, mean] = stream_mean([&](int stream) {
        if (name == "trace.overhead_ratio") {
          return Ratio(median_wall(stream, true), median_wall(stream, false));
        }
        std::vector<double> values;
        for (const Rep* r : replays_of(stream, true)) {
          const auto it = r->layers.find(name);
          values.push_back(it == r->layers.end() ? 0.0 : it->second);
        }
        return Median(values);
      });
      json << (first ? "" : ", ") << JsonString(name) << ": "
           << MetricJson(def.unit, v, mean);
      first = false;
    }
    if (!o.spans_path.empty()) {
      std::ofstream out(o.spans_path);
      for (const Rep& r : reps) {
        if (r.traced) {
          WriteSpans(r.spans, out);
          break;
        }
      }
    }
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace daybench

int main(int argc, char** argv) { return daybench::Main(argc, argv); }
