// Request-stream service front-end: admission ordering, wave formation,
// retire/prune lifecycle, drain semantics, serial planning of waves below
// one speculative wave, and equality of the speculative batch pipeline
// with the serial service when a wave size makes it speculate.

#include "service/planner_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "baselines/planner_factory.h"
#include "core/collision.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "srp/srp_planner.h"
#include "workload/arrival_profile.h"
#include "workload/request_stream.h"
#include "workload/scenario.h"
#include "workload/task_generator.h"

namespace carp::service {
namespace {

const layout::Warehouse& Tiny() {
  static auto* w =
      new layout::Warehouse(layout::GenerateWarehouse(layout::PresetTiny()));
  return *w;
}

// Deterministic rack -> picker request stream with staggered releases.
std::vector<PlanRequest> MakeRequests(const layout::Warehouse& w, int count,
                                      TimeStep spread, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<PlanRequest> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    PlanRequest r;
    r.id = i;
    r.release_time =
        static_cast<TimeStep>(rng() % static_cast<std::uint64_t>(spread + 1));
    r.origin = w.rack_access[rng() % w.rack_access.size()];
    r.destination = w.pickers[rng() % w.pickers.size()];
    requests.push_back(r);
  }
  return requests;
}

// Drains `requests` through a fresh service over `planner` and returns it
// for inspection.
std::unique_ptr<PlannerService> Drain(
    core::Planner& planner, const ServiceOptions& options,
    const std::vector<PlanRequest>& requests) {
  auto svc = std::make_unique<PlannerService>(planner, options);
  for (const auto& r : requests) svc->Submit(r);
  svc->RunUntilDrained();
  return svc;
}

TEST(RequestQueueTest, PopReadyOrdersByReleaseTimeThenId) {
  RequestQueue queue;
  queue.Push({/*id=*/2, /*release_time=*/5, {0, 0}, {0, 1}});
  queue.Push({/*id=*/1, /*release_time=*/5, {0, 0}, {0, 2}});
  queue.Push({/*id=*/0, /*release_time=*/9, {0, 0}, {0, 3}});
  queue.Push({/*id=*/3, /*release_time=*/1, {0, 0}, {0, 4}});
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.NextReleaseTime(), 1);

  std::vector<PlanRequest> wave;
  EXPECT_EQ(queue.PopReady(/*now=*/5, wave), 3u);
  ASSERT_EQ(wave.size(), 3u);
  EXPECT_EQ(wave[0].id, 3);  // release 1
  EXPECT_EQ(wave[1].id, 1);  // release 5, lower id first
  EXPECT_EQ(wave[2].id, 2);
  EXPECT_EQ(queue.size(), 1u);

  wave.clear();
  EXPECT_EQ(queue.PopReady(/*now=*/8, wave), 0u);  // release 9 not due yet
  EXPECT_EQ(queue.PopReady(/*now=*/9, wave), 1u);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.NextReleaseTime(), std::nullopt);
}

TEST(PlannerServiceTest, StepPlansOnlyReleasedRequests) {
  srp::SrpPlanner planner(Tiny().matrix);
  ServiceOptions options;
  PlannerService svc(planner, options);

  svc.Submit({0, /*release_time=*/0, Tiny().rack_access[0], Tiny().pickers[0]});
  svc.Submit({1, /*release_time=*/3, Tiny().rack_access[1],
              Tiny().pickers[1 % Tiny().pickers.size()]});

  EXPECT_EQ(svc.Step(0), 1u);  // only request 0 released
  EXPECT_EQ(svc.queued(), 1u);
  EXPECT_EQ(svc.Step(1), 0u);  // nothing due: empty tick
  EXPECT_EQ(svc.Step(3), 1u);
  EXPECT_EQ(svc.queued(), 0u);

  EXPECT_EQ(svc.metrics().admitted, 2);
  EXPECT_EQ(svc.metrics().planned, 2);
  EXPECT_EQ(svc.metrics().failed, 0);
  EXPECT_EQ(svc.metrics().waves, 2);  // the empty tick forms no wave
  EXPECT_EQ(svc.archive().size(), 2u);
  EXPECT_TRUE(core::ValidateRoutes(svc.archive()));
  // One latency and one queue-delay sample per planned request.
  EXPECT_EQ(svc.metrics().latency_ms.size(), 2u);
  EXPECT_EQ(svc.metrics().queue_delay_steps.size(), 2u);
}

TEST(PlannerServiceTest, RunUntilDrainedPlansEveryRequest) {
  const auto requests = MakeRequests(Tiny(), 40, /*spread=*/60, /*seed=*/7);
  srp::SrpPlanner planner(Tiny().matrix);
  ServiceOptions options;
  options.threads = 4;
  PlannerService svc(planner, options);
  for (const auto& r : requests) svc.Submit(r);

  svc.RunUntilDrained();

  const auto& m = svc.metrics();
  EXPECT_EQ(m.admitted, 40);
  EXPECT_EQ(m.planned + m.failed, 40);
  EXPECT_EQ(m.failed, 0);
  EXPECT_EQ(svc.archive().size(), 40u);
  EXPECT_TRUE(core::ValidateRoutes(svc.archive()));
  EXPECT_GT(m.waves, 0);
  // Percentiles are well-defined once samples exist.
  EXPECT_GE(m.LatencyMsPercentile(0.99), m.LatencyMsPercentile(0.50));
  EXPECT_GE(m.QueueDelayPercentile(0.99), 0.0);
}

TEST(PlannerServiceTest, RetiringServiceReleasesStateButKeepsArchive) {
  const auto requests = MakeRequests(Tiny(), 30, /*spread=*/200, /*seed=*/11);
  srp::SrpPlanner planner(Tiny().matrix);
  ServiceOptions options;
  options.threads = 2;
  options.retire_routes = true;
  options.prune_every = 64;
  options.prune_slack = 8;
  PlannerService svc(planner, options);
  for (const auto& r : requests) svc.Submit(r);

  svc.RunUntilDrained();

  const auto& m = svc.metrics();
  EXPECT_EQ(m.planned, 30);
  // The drain's final tick retires everything the clock passed.
  EXPECT_EQ(m.routes_retired, 30);
  EXPECT_EQ(planner.live_routes(), 0u);
  EXPECT_EQ(planner.SegmentCount(), 0u);
  EXPECT_EQ(planner.CheckInvariants(), "");
  // History survives retirement.
  EXPECT_EQ(svc.archive().size(), 30u);
  EXPECT_TRUE(core::ValidateRoutes(svc.archive()));
}

// Default options: no service wave fills the auto wave (16 queries at
// threads <= 4), so every wave plans serially on the service thread.
TEST(PlannerServiceTest, DefaultWavesPlanSeriallyAcrossThreadCounts) {
  const auto requests = MakeRequests(Tiny(), 36, /*spread=*/24, /*seed=*/23);

  srp::SrpPlanner serial_planner(Tiny().matrix);
  const auto serial = Drain(serial_planner, ServiceOptions{}, requests);
  ASSERT_TRUE(core::ValidateRoutes(serial->archive()));
  EXPECT_EQ(serial->metrics().planned + serial->metrics().failed, 36);

  for (int threads : {2, 4}) {
    srp::SrpPlanner planner(Tiny().matrix);
    ServiceOptions options;
    options.threads = threads;
    const auto svc = Drain(planner, options, requests);
    EXPECT_EQ(svc->metrics().speculated, 0) << "threads=" << threads;
    EXPECT_EQ(svc->archive(), serial->archive()) << "threads=" << threads;
  }
}

// With `wave_size = 2` every wave of two or more requests speculates, and
// the speculative service must still commit exactly the serial archive.
TEST(PlannerServiceTest, SpeculativeWavesMatchSerialAcrossThreadCounts) {
  const auto requests = MakeRequests(Tiny(), 36, /*spread=*/24, /*seed=*/23);

  std::vector<core::Route> reference;
  for (int threads : {1, 2, 8}) {
    srp::SrpPlanner planner(Tiny().matrix);
    ServiceOptions options;
    options.threads = threads;
    options.wave_size = 2;
    const auto svc = Drain(planner, options, requests);

    ASSERT_TRUE(core::ValidateRoutes(svc->archive())) << "threads=" << threads;
    EXPECT_EQ(svc->metrics().planned + svc->metrics().failed, 36)
        << "threads=" << threads;
    if (threads == 1) {
      reference = svc->archive();
    } else {
      EXPECT_EQ(svc->archive(), reference) << "threads=" << threads;
      // Dense releases form multi-request waves, so the parallel service
      // actually exercised speculation.
      EXPECT_GT(svc->metrics().speculated, 0) << "threads=" << threads;
    }
  }
}

TEST(PlannerServiceTest, SpeculativeWavesMatchSerialOnGridBaseline) {
  const auto requests = MakeRequests(Tiny(), 24, /*spread=*/16, /*seed=*/5);

  std::vector<core::Route> serial_archive;
  for (int threads : {1, 4}) {
    auto planner = baselines::MakePlanner("SAP", Tiny().matrix);
    ServiceOptions options;
    options.threads = threads;
    options.wave_size = 2;
    const auto svc = Drain(*planner, options, requests);

    ASSERT_TRUE(core::ValidateRoutes(svc->archive())) << "threads=" << threads;
    EXPECT_EQ(svc->metrics().planned + svc->metrics().failed, 24)
        << "threads=" << threads;
    if (threads == 1) {
      serial_archive = svc->archive();
    } else {
      // SAP speculates with its exact serial search, so the parallel
      // service must match the serial archive byte for byte.
      EXPECT_EQ(svc->archive(), serial_archive);
      EXPECT_GT(svc->metrics().speculated, 0);
    }
  }
}

// The start of a W-2 day (the preset and Day-1 task stream of the
// operating-day benchmark's service workload, at 0.6% scale): its waves
// hold one to a few requests. Speculating every wave of two or more on
// three workers must commit exactly the serial service's archive.
TEST(PlannerServiceTest, SpeculativeWavesMatchSerialOnW2Stream) {
  const auto scenario = workload::ScaledScenario(
      workload::PaperScenario("W-2"), /*scale=*/0.006);
  const layout::Warehouse w = layout::GenerateWarehouse(scenario.layout);
  workload::TaskGeneratorOptions topts;
  topts.task_count = scenario.daily_tasks[0];
  topts.day_length = scenario.day_length;
  topts.seed = 1000;
  const auto tasks = workload::GenerateTasks(
      w, workload::ArrivalProfile::DoubleSurge(), topts);
  std::vector<PlanRequest> requests;
  for (const auto& q : workload::FlattenToQueries(w, tasks)) {
    if (q.origin == q.destination) continue;
    requests.push_back({0, q.emergence, q.origin, q.destination});
  }
  std::stable_sort(requests.begin(), requests.end(),
                   [](const PlanRequest& a, const PlanRequest& b) {
                     return a.release_time < b.release_time;
                   });
  requests.resize(std::min<std::size_t>(requests.size(), 160));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = static_cast<std::int64_t>(i);
  }

  srp::SrpPlanner serial_planner(w.matrix);
  const auto serial = Drain(serial_planner, ServiceOptions{}, requests);

  srp::SrpPlanner planner(w.matrix);
  ServiceOptions options;
  options.threads = 3;
  options.wave_size = 2;
  const auto svc = Drain(planner, options, requests);

  const auto& m = svc->metrics();
  EXPECT_EQ(m.planned + m.failed, static_cast<std::int64_t>(requests.size()));
  EXPECT_LT(m.waves, m.planned);  // some waves hold several requests
  EXPECT_GT(m.speculated, 0);
  EXPECT_TRUE(core::ValidateRoutes(svc->archive()));
  EXPECT_EQ(svc->archive(), serial->archive());
}

}  // namespace
}  // namespace carp::service
