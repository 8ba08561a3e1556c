#ifndef CARP_SERVICE_PLANNER_SERVICE_H_
#define CARP_SERVICE_PLANNER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <vector>

#include "common/prune_cadence.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/types.h"
#include "core/batch_planner.h"
#include "core/planner.h"
#include "lns/lns_refiner.h"

namespace carp::service {

/// One timed plan request of the service front-end: at `release_time` the
/// request becomes plannable (a robot is ready to move origin ->
/// destination). `id` breaks release-time ties and names the request in
/// the service's result log.
struct PlanRequest {
  std::int64_t id = 0;
  TimeStep release_time = 0;
  GridCoord origin;
  GridCoord destination;
};

/// Thread-safe admission queue of timed plan requests, ordered by
/// (release_time, id). Producers Submit from any thread; the service
/// thread drains everything released by its current time with PopReady —
/// that drained slice is a *wave*.
class RequestQueue {
 public:
  void Push(PlanRequest request) {
    std::lock_guard<std::mutex> lock(mu_);
    heap_.push(request);
  }

  /// Appends every request with release_time <= now to `out`, in
  /// (release_time, id) order, and returns how many were popped.
  std::size_t PopReady(TimeStep now, std::vector<PlanRequest>& out) {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t popped = 0;
    while (!heap_.empty() && heap_.top().release_time <= now) {
      out.push_back(heap_.top());
      heap_.pop();
      ++popped;
    }
    return popped;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return heap_.size();
  }

  bool empty() const { return size() == 0; }

  /// Release time of the earliest queued request, or nullopt when empty.
  std::optional<TimeStep> NextReleaseTime() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (heap_.empty()) return std::nullopt;
    return heap_.top().release_time;
  }

 private:
  struct Later {
    bool operator()(const PlanRequest& a, const PlanRequest& b) const {
      if (a.release_time != b.release_time) {
        return a.release_time > b.release_time;
      }
      return a.id > b.id;
    }
  };

  mutable std::mutex mu_;
  std::priority_queue<PlanRequest, std::vector<PlanRequest>, Later> heap_;
};

/// Knobs of the long-lived service loop.
struct ServiceOptions {
  /// Workers of the persistent thread pool a wave's speculative queries
  /// run on. A wave smaller than one speculative wave (`wave_size`) plans
  /// serially on the service thread whatever this is. With the auto wave
  /// size (16 queries up to four workers) that holds for every wave of the
  /// W-2 operating-day stream (1-7 requests), and the pool then never
  /// starts a thread.
  int threads = 1;

  /// Priority order within a wave (requests already arrive in
  /// (release_time, id) order; kAsGiven keeps that).
  core::BatchOrder order = core::BatchOrder::kAsGiven;

  /// PlanBatch wave chunking and speculation threshold (0 = auto); see
  /// BatchPlanOptions::wave_size.
  int wave_size = 0;

  /// Retire a route through Planner::ReleaseRoute once the service clock
  /// passes its end time, and prune planner state on a fixed cadence — the
  /// lifecycle regime a long-lived service must run in to stay bounded.
  bool retire_routes = true;
  TimeStep prune_every = 4096;
  TimeStep prune_slack = 64;

  /// RunUntilDrained's service cadence: after an empty tick the clock
  /// jumps to the next release time; after a busy tick it advances by at
  /// least this much before the next wave forms.
  TimeStep wave_interval = 1;

  /// Background refinement (DESIGN.md §2i): spend otherwise-idle service
  /// ticks running anytime LNS iterations over the live routes that have
  /// not started executing yet. Each accepted repair rewrites the live set
  /// and the archive in place; rejected repairs are bit-identical no-ops,
  /// so refinement never degrades the committed plan.
  bool refine = false;
  std::size_t refine_neighborhood = 8;
  std::uint64_t refine_seed = 1;
  int refine_iterations_per_tick = 1;
};

/// Per-request / per-wave telemetry of a service run. Latency percentiles
/// are exact (samples retained; one latency sample per request).
struct ServiceMetrics {
  std::int64_t admitted = 0;
  std::int64_t planned = 0;
  std::int64_t failed = 0;
  std::int64_t waves = 0;
  std::int64_t routes_retired = 0;
  std::int64_t prunes = 0;

  /// Per-request service latency: wall time of the wave that planned the
  /// request (admission-to-route, excluding queue delay), milliseconds.
  std::vector<double> latency_ms;

  /// Per-request queue delay in simulated timesteps: wave formation time
  /// minus release time.
  std::vector<double> queue_delay_steps;

  /// Speculation counters summed over all waves (reported by PlanBatch).
  std::int64_t speculated = 0;
  std::int64_t invalidated = 0;

  /// Background-refinement counters (mirrors of lns::LnsStats; only move
  /// when ServiceOptions::refine is on). `refine_cost_improvement` is the
  /// summed RouteCost reduction of accepted repairs.
  std::int64_t refine_iterations = 0;
  std::int64_t refine_accepted = 0;
  std::int64_t refine_rollbacks = 0;
  std::int64_t refine_cost_improvement = 0;

  double LatencyMsPercentile(double q) const {
    return Percentile(latency_ms, q);
  }
  double QueueDelayPercentile(double q) const {
    return Percentile(queue_delay_steps, q);
  }
};

/// Long-lived request-stream front-end over any core::Planner (DESIGN.md
/// §2h).
///
/// A service owns a persistent ThreadPool and an admission queue. Each
/// Step(now) is one service tick: retire routes the clock has passed,
/// prune on cadence, drain the released requests into a wave, and plan the
/// wave through core::PlanBatch — serially on the service thread when the
/// wave is smaller than one speculative wave, otherwise with the
/// speculative query phase on the service's pool and validation and
/// commits on the service thread. Committed routes are archived so a
/// collision oracle can audit the whole history even in the retiring
/// regime.
///
/// Determinism: Step is single-threaded at the orchestration level and
/// PlanBatch's result is thread-count independent, so the committed route
/// set of a run depends only on the admitted requests and the options —
/// not on pool scheduling. Wall-clock latency samples are telemetry, not
/// state.
class PlannerService {
 public:
  PlannerService(core::Planner& planner, const ServiceOptions& options);

  /// Admits a request (thread-safe; callable while a Step runs on another
  /// thread only between waves — producers normally enqueue ahead).
  void Submit(const PlanRequest& request);

  /// One service tick at time `now` (must be monotone across calls).
  /// Returns the number of requests planned this tick.
  std::size_t Step(TimeStep now);

  /// Drives Step until the queue drains, jumping the clock to the next
  /// release time when idle. Returns the final service time.
  TimeStep RunUntilDrained();

  const ServiceMetrics& metrics() {
    metrics_.admitted = admitted_.load(std::memory_order_relaxed);
    return metrics_;
  }
  const ServiceOptions& options() const { return options_; }
  core::Planner& planner() { return planner_; }

  /// Every route the service ever committed, in commit order — retirement
  /// releases planner state but never forgets history, so the service's
  /// full output can be validated for collision-freedom.
  const std::vector<core::Route>& archive() const { return archive_; }

  std::size_t queued() const { return queue_.size(); }

 private:
  core::Planner& planner_;
  ServiceOptions options_;
  ThreadPool pool_;
  RequestQueue queue_;
  ServiceMetrics metrics_;
  std::atomic<std::int64_t> admitted_{0};

  /// One idle-tick refinement pass: selects the not-yet-started live
  /// routes, runs the configured number of LNS iterations, and writes
  /// accepted repairs back into live_ and archive_. Returns the number of
  /// accepted repairs.
  std::size_t RefineTick(TimeStep now);

  // Committed-but-not-yet-retired routes (end_time still ahead of the
  // clock), kept so retirement can release them; and the full history.
  // `archive_index` lets an accepted refinement repair rewrite the
  // archived copy in place.
  struct LiveRoute {
    core::Route route;
    TimeStep end_time;
    std::size_t archive_index;
  };
  std::vector<LiveRoute> live_;
  std::vector<core::Route> archive_;

  TimeStep clock_ = 0;
  PruneCadence prune_cadence_;
  std::unique_ptr<lns::LnsRefiner> refiner_;
  std::vector<PlanRequest> wave_;         // scratch, reused across ticks
  std::vector<core::BatchQuery> queries_;  // scratch, parallel to wave_
  std::vector<lns::LnsCandidate> refine_candidates_;  // scratch
  std::vector<std::size_t> refine_map_;  // candidate -> live_ index
};

}  // namespace carp::service

#endif  // CARP_SERVICE_PLANNER_SERVICE_H_
