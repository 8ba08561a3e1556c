#include "service/planner_service.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace carp::service {

PlannerService::PlannerService(core::Planner& planner,
                               const ServiceOptions& options)
    : planner_(planner),
      options_(options),
      pool_(std::max(1, options.threads)),
      prune_cadence_{options.prune_every, options.prune_slack, /*last=*/0} {
  if (options_.refine) {
    lns::LnsOptions lns_options;
    lns_options.neighborhood = options_.refine_neighborhood;
    lns_options.seed = options_.refine_seed;
    lns_options.pool = &pool_;
    refiner_ = std::make_unique<lns::LnsRefiner>(planner_, lns_options);
  }
}

void PlannerService::Submit(const PlanRequest& request) {
  queue_.Push(request);
  admitted_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t PlannerService::Step(TimeStep now) {
  CARP_CHECK(now >= clock_) << "service clock must be monotone: step at "
                            << now << " after " << clock_;
  clock_ = now;

  if (options_.retire_routes) {
    // Retire every route whose execution window the clock has passed. A
    // false ReleaseRoute means a prune sweep already dropped it — either
    // way it leaves the live set (the archive keeps the history).
    std::size_t keep = 0;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].end_time < now) {
        if (planner_.ReleaseRoute(live_[i].route)) ++metrics_.routes_retired;
      } else {
        if (keep != i) live_[keep] = std::move(live_[i]);
        ++keep;
      }
    }
    live_.resize(keep);

    // The cadence marker only advances when a sweep actually fires
    // (PruneCadence) — advancing it on a skipped early-clock sweep is the
    // ISSUE 8 bug that left early-run garbage unpruned for a full period.
    if (const auto cutoff = prune_cadence_.Due(now)) {
      planner_.PruneBefore(*cutoff);
      ++metrics_.prunes;
    }
  }

  wave_.clear();
  queries_.clear();
  if (queue_.PopReady(now, wave_) == 0) {
    // An empty tick is refinement budget: no wave formed, the pool is
    // idle, so spend it improving the committed plan.
    if (options_.refine) RefineTick(now);
    return 0;
  }
  queries_.reserve(wave_.size());
  for (const PlanRequest& r : wave_) {
    queries_.push_back(core::BatchQuery{r.origin, r.destination});
  }

  core::BatchPlanOptions batch_options;
  batch_options.order = options_.order;
  batch_options.threads = options_.threads;
  batch_options.pool = &pool_;
  batch_options.wave_size = options_.wave_size;

  Stopwatch watch;
  watch.Start();
  core::BatchResult batch =
      core::PlanBatch(planner_, now, queries_, batch_options);
  watch.Stop();
  const double wave_ms = watch.elapsed_seconds() * 1e3;

  ++metrics_.waves;
  metrics_.planned += batch.planned;
  metrics_.failed += batch.failed;
  metrics_.speculated += batch.speculated;
  metrics_.invalidated += batch.invalidated;

  // Every request of the wave shares the wave's wall time as its service
  // latency: a request is served when its wave's commits are flushed, not
  // when its own route happens to finish planning.
  for (std::size_t i = 0; i < wave_.size(); ++i) {
    metrics_.latency_ms.push_back(wave_ms);
    metrics_.queue_delay_steps.push_back(
        static_cast<double>(now - wave_[i].release_time));
    if (batch.routes[i].has_value()) {
      const core::Route& route = *batch.routes[i];
      archive_.push_back(route);
      live_.push_back(LiveRoute{route, route.end_time(), archive_.size() - 1});
    }
  }
  return wave_.size();
}

std::size_t PlannerService::RefineTick(TimeStep now) {
  if (!refiner_) return 0;
  // Only routes that have not started executing are plan state; a route
  // already under way is physical and must not be replanned. Replacements
  // emerge at `now` — a parked robot may dispatch any time from now on,
  // and earlier dispatch than the original plan is exactly the win.
  refine_candidates_.clear();
  refine_map_.clear();
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i].route.start_time() > now) {
      refine_candidates_.push_back(lns::LnsCandidate{live_[i].route, now});
      refine_map_.push_back(i);
    }
  }
  if (refine_candidates_.size() < 2) return 0;

  std::size_t accepted = 0;
  const int iterations = std::max(1, options_.refine_iterations_per_tick);
  for (int i = 0; i < iterations; ++i) {
    if (refiner_->Iterate(refine_candidates_)) ++accepted;
  }
  if (accepted > 0) {
    for (std::size_t j = 0; j < refine_candidates_.size(); ++j) {
      const std::size_t idx = refine_map_[j];
      const core::Route& route = refine_candidates_[j].route;
      if (!(route == live_[idx].route)) {
        live_[idx].route = route;
        live_[idx].end_time = route.end_time();
        archive_[live_[idx].archive_index] = route;
      }
    }
  }

  const lns::LnsStats& st = refiner_->stats();
  metrics_.refine_iterations = st.iterations;
  metrics_.refine_accepted = st.accepted;
  metrics_.refine_rollbacks = st.rollbacks;
  metrics_.refine_cost_improvement = st.cost_improvement;
  return accepted;
}

TimeStep PlannerService::RunUntilDrained() {
  bool first = true;
  while (auto next = queue_.NextReleaseTime()) {
    TimeStep t = std::max(clock_, *next);
    if (!first) t = std::max(t, clock_ + options_.wave_interval);
    // A gap before the next release is idle time: spend one tick of it on
    // background refinement before jumping the clock to the wave. The
    // guard on *next keeps wave cadence identical to the unrefined run.
    if (options_.refine && !first && *next > clock_ + 1) {
      Step(clock_ + 1);
    }
    first = false;
    Step(t);
  }
  // One last lifecycle tick past the final route so a retiring service
  // drains to zero live routes.
  if (options_.retire_routes && !live_.empty()) {
    TimeStep horizon = clock_;
    for (const LiveRoute& lr : live_) {
      horizon = std::max(horizon, lr.end_time);
    }
    Step(horizon + 1);
  }
  return clock_;
}

}  // namespace carp::service
