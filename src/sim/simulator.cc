#include "sim/simulator.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/prune_cadence.h"
#include "common/timer.h"
#include "core/batch_planner.h"
#include "core/collision.h"

namespace carp::sim {

namespace {

using workload::DeliveryTask;
using workload::QueryStage;

struct Event {
  TimeStep time = 0;
  std::int64_t seq = 0;  // FIFO tie-break
  enum class Kind { kArrival, kStageDone } kind = Kind::kArrival;
  std::size_t task_index = 0;
  QueryStage done_stage = QueryStage::kPickup;
  RobotId robot = -1;
  GridCoord robot_at;  // robot position when the stage completed

  // The stage's committed route, carried so retirement can hand it back to
  // Planner::ReleaseRoute the moment the robot finishes executing it
  // (SimulatorOptions::retire_routes). Empty on arrival events.
  std::optional<core::Route> route;

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

}  // namespace

Simulator::Simulator(const layout::Warehouse& warehouse,
                     core::Planner& planner, const SimulatorOptions& options)
    : warehouse_(warehouse), planner_(planner), options_(options) {}

RunMetrics Simulator::Run(const std::vector<DeliveryTask>& tasks) {
  RunMetrics metrics;
  metrics.algorithm = std::string(planner_.name());
  metrics.total_tasks = static_cast<std::int64_t>(tasks.size());

  RobotAssigner robots(warehouse_.robot_homes, options_.assignment);
  Stopwatch planning_watch;
  EventTrace* trace = options_.trace;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::int64_t seq = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    events.push(Event{tasks[i].arrival, seq++, Event::Kind::kArrival, i,
                      QueryStage::kPickup, -1, GridCoord{}, std::nullopt});
  }
  std::deque<std::size_t> pending;  // tasks waiting for an idle robot

  const std::int64_t sample_every = std::max<std::int64_t>(
      1, metrics.total_tasks / std::max(1, options_.sample_points));

  TimeStep makespan = 0;

  // Route lifecycle (retire_routes): every stage route is released the
  // moment its StageDone event fires, and PruneBefore runs on the
  // prune_every cadence. Released routes are archived in retired_
  // (validation only) so the end-of-run collision oracle still covers the
  // whole history, not just the routes that survive in the planner's log.
  const bool retire = options_.retire_routes;
  PruneCadence prune_cadence{options_.prune_every, options_.prune_slack,
                             /*last=*/0};

  // Plans one stage; returns the route end state or nullopt on failure.
  auto plan_stage = [&](TimeStep now, GridCoord origin, GridCoord dest,
                        std::int64_t task_id, workload::QueryStage stage,
                        RobotId robot) -> std::optional<core::Route> {
    planning_watch.Start();
    auto route = planner_.PlanRoute(now, origin, dest);
    const std::int64_t lap_ns = planning_watch.Stop();
    if (route.has_value()) {
      makespan = std::max(makespan, route->finish_term());
      if (trace != nullptr) {
        TraceEvent e;
        e.kind = TraceEvent::Kind::kStagePlanned;
        e.sim_time = now;
        e.task_id = task_id;
        e.stage = stage;
        e.robot = robot;
        e.plan_micros = lap_ns / 1000;
        e.route_length = route->length();
        e.route_waits = route->WaitCount();
        trace->Record(e);
      }
    } else {
      ++metrics.failed_queries;
      if (trace != nullptr) {
        TraceEvent e;
        e.kind = TraceEvent::Kind::kPlanFailed;
        e.sim_time = now;
        e.task_id = task_id;
        e.stage = stage;
        e.robot = robot;
        trace->Record(e);
      }
    }
    return route;
  };

  auto sample = [&](TimeStep now) {
    ProgressSample s;
    s.progress = metrics.total_tasks == 0
                     ? 1.0
                     : static_cast<double>(metrics.finished_tasks) /
                           static_cast<double>(metrics.total_tasks);
    s.tc_seconds = planning_watch.elapsed_seconds();
    s.mc_bytes = planner_.RetainedBytes();
    s.sim_time = now;
    s.live_routes = planner_.live_routes();
    metrics.peak_mc_bytes = std::max(metrics.peak_mc_bytes, s.mc_bytes);
    metrics.samples.push_back(s);
  };

  auto finish_task = [&](TimeStep now, std::int64_t task_id) {
    ++metrics.finished_tasks;
    if (trace != nullptr) {
      TraceEvent e;
      e.kind = TraceEvent::Kind::kTaskDone;
      e.sim_time = now;
      e.task_id = task_id;
      trace->Record(e);
    }
    if (metrics.finished_tasks % sample_every == 0 ||
        metrics.finished_tasks == metrics.total_tasks) {
      sample(now);
    }
  };

  // Speculative batched dispatch (threads > 1): every pickup query that is
  // dispatchable at this timestep is planned as one parallel batch through
  // core::PlanBatch. Robots are acquired up front (fixing origins and the
  // FIFO priority order), the batch is planned, and results are settled in
  // order; failures free their robot for the next round, exactly like the
  // serial loop does.
  auto batched_dispatch = [&](TimeStep now) {
    struct Dispatch {
      std::size_t task_index;
      RobotId robot;
      GridCoord from;
    };
    while (!pending.empty() && robots.idle_count() > 0) {
      std::vector<Dispatch> dispatched;
      std::vector<core::BatchQuery> queries;
      while (!pending.empty() && robots.idle_count() > 0) {
        const std::size_t task_index = pending.front();
        const DeliveryTask& task = tasks[task_index];
        const GridCoord access = warehouse_.rack_access[task.rack_index];
        const auto robot = robots.Acquire(access);
        CARP_CHECK(robot.has_value());
        pending.pop_front();
        const GridCoord from = robots.PositionOf(*robot);
        dispatched.push_back(Dispatch{task_index, *robot, from});
        queries.push_back(core::BatchQuery{from, access});
      }

      core::BatchPlanOptions batch_options;
      batch_options.threads = options_.threads;
      batch_options.sharded_commit = options_.sharded_commit;
      planning_watch.Start();
      auto batch = core::PlanBatch(planner_, now, queries, batch_options);
      const std::int64_t lap_ns = planning_watch.Stop();
      const std::int64_t per_query_ns =
          lap_ns / static_cast<std::int64_t>(queries.size());

      for (std::size_t i = 0; i < dispatched.size(); ++i) {
        const Dispatch& d = dispatched[i];
        const DeliveryTask& task = tasks[d.task_index];
        auto& route = batch.routes[i];
        if (route.has_value()) {
          makespan = std::max(makespan, route->finish_term());
          if (trace != nullptr) {
            TraceEvent e;
            e.kind = TraceEvent::Kind::kStagePlanned;
            e.sim_time = now;
            e.task_id = task.id;
            e.stage = QueryStage::kPickup;
            e.robot = d.robot;
            e.plan_micros = per_query_ns / 1000;
            e.route_length = route->length();
            e.route_waits = route->WaitCount();
            trace->Record(e);
          }
          events.push(Event{route->end_time() + 1, seq++,
                            Event::Kind::kStageDone, d.task_index,
                            QueryStage::kPickup, d.robot,
                            route->destination(), std::move(route)});
        } else {
          ++metrics.failed_queries;
          if (trace != nullptr) {
            TraceEvent e;
            e.kind = TraceEvent::Kind::kPlanFailed;
            e.sim_time = now;
            e.task_id = task.id;
            e.stage = QueryStage::kPickup;
            e.robot = d.robot;
            trace->Record(e);
          }
          robots.Release(d.robot, d.from);
          finish_task(now, task.id);
        }
      }
    }
  };

  // Dispatches pending tasks to idle robots; called at arrival and
  // whenever a robot frees up. In batched mode dispatch is instead
  // deferred to the end of the timestep (below), so that every arrival
  // and robot release at `now` lands in one speculative batch.
  auto try_dispatch = [&](TimeStep now) {
    while (!pending.empty() && robots.idle_count() > 0) {
      const std::size_t task_index = pending.front();
      const DeliveryTask& task = tasks[task_index];
      const GridCoord access = warehouse_.rack_access[task.rack_index];
      const auto robot = robots.Acquire(access);
      CARP_CHECK(robot.has_value());
      pending.pop_front();

      const GridCoord from = robots.PositionOf(*robot);
      auto route = plan_stage(now, from, access, task.id,
                              QueryStage::kPickup, *robot);
      if (!route.has_value()) {
        // Unplannable pickup: task abandoned, robot freed in place.
        robots.Release(*robot, from);
        finish_task(now, task.id);
        continue;
      }
      events.push(Event{route->end_time() + 1, seq++,
                        Event::Kind::kStageDone, task_index,
                        QueryStage::kPickup, *robot,
                        route->destination(), std::move(route)});
    }
  };

  // Batched mode defers every dispatch to the end of the timestep so that
  // all tasks that become dispatchable at `now` (arrivals plus robots freed
  // by stage completions) form one speculative batch instead of a sequence
  // of singletons. The serial path (threads <= 1) dispatches eagerly per
  // event, byte-identical to the original loop.
  const bool batched =
      options_.threads > 1 && planner_.SupportsSpeculation();

  while (!events.empty()) {
    Event ev = events.top();
    events.pop();
    const TimeStep now = ev.time;
    const DeliveryTask& task = tasks[ev.task_index];

    if (retire) {
      // The cadence marker only advances when a sweep fires (PruneCadence):
      // the old inline guard advanced it even while now - prune_slack was
      // still non-positive, postponing the first real sweep by a whole
      // prune_every with a large slack (ISSUE 8 bugfix).
      if (const auto cutoff = prune_cadence.Due(now)) {
        planner_.PruneBefore(*cutoff);
      }
    }
    if (retire && ev.route.has_value()) {
      // The robot finished executing this stage's route at now - 1: its
      // reservations are entirely in the past, so retiring it cannot
      // change any future planning decision.
      if (planner_.ReleaseRoute(*ev.route)) ++metrics.routes_released;
      if (options_.validate) retired_.push_back(std::move(*ev.route));
    }

    switch (ev.kind) {
      case Event::Kind::kArrival: {
        if (trace != nullptr) {
          TraceEvent e;
          e.kind = TraceEvent::Kind::kTaskArrival;
          e.sim_time = now;
          e.task_id = task.id;
          trace->Record(e);
        }
        pending.push_back(ev.task_index);
        if (!batched) try_dispatch(now);
        break;
      }
      case Event::Kind::kStageDone: {
        const GridCoord access = warehouse_.rack_access[task.rack_index];
        const GridCoord picker = warehouse_.pickers[task.picker_index];
        if (trace != nullptr) {
          TraceEvent e;
          e.kind = TraceEvent::Kind::kStageDone;
          e.sim_time = now;
          e.task_id = task.id;
          e.stage = ev.done_stage;
          e.robot = ev.robot;
          trace->Record(e);
        }
        if (ev.done_stage == QueryStage::kPickup) {
          auto route = plan_stage(now, ev.robot_at, picker, task.id,
                                  QueryStage::kTransmission, ev.robot);
          if (!route.has_value()) {
            robots.Release(ev.robot, ev.robot_at);
            finish_task(now, task.id);
            if (!batched) try_dispatch(now);
            break;
          }
          events.push(Event{route->end_time() + 1, seq++,
                            Event::Kind::kStageDone, ev.task_index,
                            QueryStage::kTransmission, ev.robot,
                            route->destination(), std::move(route)});
        } else if (ev.done_stage == QueryStage::kTransmission) {
          auto route = plan_stage(now, ev.robot_at, access, task.id,
                                  QueryStage::kReturn, ev.robot);
          if (!route.has_value()) {
            robots.Release(ev.robot, ev.robot_at);
            finish_task(now, task.id);
            if (!batched) try_dispatch(now);
            break;
          }
          events.push(Event{route->end_time() + 1, seq++,
                            Event::Kind::kStageDone, ev.task_index,
                            QueryStage::kReturn, ev.robot,
                            route->destination(), std::move(route)});
        } else {  // kReturn complete: task done, robot idle.
          robots.Release(ev.robot, ev.robot_at);
          finish_task(now, task.id);
          if (!batched) try_dispatch(now);
        }
        break;
      }
    }
    if (batched && !pending.empty() &&
        (events.empty() || events.top().time != now)) {
      batched_dispatch(now);
    }
    // Sampled after this event's commits and before the next event's
    // releases, so it captures the day's true working-set peak — the
    // end-of-run value drains to ~0 when retirement is on.
    metrics.peak_live_routes =
        std::max(metrics.peak_live_routes, planner_.live_routes());
  }

  metrics.makespan = makespan;
  metrics.total_tc_seconds = planning_watch.elapsed_seconds();
  metrics.planner_stats = planner_.stats();
  metrics.end_live_routes = planner_.live_routes();
  metrics.peak_live_routes =
      std::max(metrics.peak_live_routes, metrics.end_live_routes);
  metrics.end_retained_bytes = planner_.RetainedBytes();
  if (metrics.samples.empty() ||
      metrics.samples.back().progress < 1.0) {
    sample(makespan);
  }

  if (options_.validate) {
    metrics.validated = true;
    if (retired_.empty()) {
      metrics.collision_free = core::RouteSetValidator::IsCollisionFree(
          planner_.committed_routes());
    } else {
      // With retirement on, the oracle must see the whole history: routes
      // released by this and earlier runs plus whatever is still live. The
      // live routes join the archive only for the check.
      const std::size_t archived = retired_.size();
      const auto& live = planner_.committed_routes();
      retired_.insert(retired_.end(), live.begin(), live.end());
      metrics.collision_free =
          core::RouteSetValidator::IsCollisionFree(retired_);
      retired_.erase(retired_.begin() + static_cast<std::ptrdiff_t>(archived),
                     retired_.end());
    }
  }
  return metrics;
}

}  // namespace carp::sim
