// Counter golden test: SRP and SRP-indexed, built with their defaults, run
// one seeded small W-1 day through every path that feeds stats() — serial
// PlanRoute, PlanBatch with three workers, ReleaseRoute
// and PruneBefore, serial PlanRoute again on the pruned state, and a final
// release of every route — and every counter stats() reports must equal
// the constants recorded below.
//
// The constants pin where the counters are accumulated, not only what the
// planner answers: a store probe that goes uncounted (or is counted twice)
// on any path changes them even when the routes stay the same.

#include <array>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/planner_factory.h"
#include "core/batch_planner.h"
#include "core/collision.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "workload/request_stream.h"
#include "workload/task_generator.h"

namespace carp {
namespace {

using core::PlannerStats;

struct Golden {
  const char* tag;
  std::int64_t queries;
  std::int64_t failures;
  std::int64_t fallbacks;
  std::int64_t rescues;
  std::array<std::int64_t, core::kFallbackReasonCount> fallback_reasons;
  std::int64_t expanded_nodes;
  std::int64_t speculative_routes;
  std::int64_t speculative_invalidated;
  std::int64_t routes_released;
  std::int64_t routes_pruned;
  std::int64_t candidates_examined;
  std::int64_t blocks_scanned;
  std::int64_t blocks_skipped;
  std::int64_t candidates_pruned_by_summary;
  std::int64_t buckets_erased;
};

void PrintTo(const Golden& g, std::ostream* os) { *os << g.tag; }

// The recorded counters of `s`, for the failure report.
void PrintCounters(const PlannerStats& s) {
  std::cout << "queries=" << s.queries << " failures=" << s.failures
            << " fallbacks=" << s.fallbacks << " rescues=" << s.rescues
            << " reasons={" << s.fallback_reasons[0] << ", "
            << s.fallback_reasons[1] << ", " << s.fallback_reasons[2] << ", "
            << s.fallback_reasons[3] << "} expanded=" << s.expanded_nodes
            << " speculative=" << s.speculative_routes
            << " invalidated=" << s.speculative_invalidated
            << " released=" << s.routes_released
            << " pruned=" << s.routes_pruned
            << " candidates=" << s.candidates_examined
            << " scanned=" << s.blocks_scanned
            << " skipped=" << s.blocks_skipped
            << " summary_pruned=" << s.candidates_pruned_by_summary
            << " buckets_erased=" << s.buckets_erased << "\n";
}

class PlannerStatsGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(PlannerStatsGoldenTest, CountersMatchRecordedDay) {
  const Golden& golden = GetParam();
  const layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetW1());
  workload::TaskGeneratorOptions topts;
  topts.task_count = 120;
  topts.day_length = 300;
  topts.seed = 22;
  const auto tasks = workload::GenerateTasks(
      warehouse, workload::ArrivalProfile::DoubleSurge(), topts);
  const auto queries = workload::FlattenToQueries(warehouse, tasks);

  auto planner = baselines::MakePlanner(golden.tag, warehouse.matrix);
  ASSERT_NE(planner, nullptr);

  // Serial PlanRoute for queries emerging before 100.
  std::size_t next = 0;
  for (; next < queries.size() && queries[next].emergence < 100; ++next) {
    const auto& q = queries[next];
    planner->PlanRoute(q.emergence, q.origin, q.destination);
  }

  // PlanBatch over 10-step windows up to 200: three workers, each window
  // planned at its last query's emergence.
  core::BatchPlanOptions batch;
  batch.threads = 3;
  while (next < queries.size() && queries[next].emergence < 200) {
    const TimeStep window_end = (queries[next].emergence / 10 + 1) * 10;
    std::vector<core::BatchQuery> wave;
    TimeStep t = queries[next].emergence;
    for (; next < queries.size() && queries[next].emergence < window_end;
         ++next) {
      wave.push_back({queries[next].origin, queries[next].destination});
      t = queries[next].emergence;
    }
    core::PlanBatch(*planner, t, wave, batch);
  }

  // Release every other route that ends before 200, then prune the rest of
  // the state ending before 200 (no later query emerges before it).
  const std::vector<core::Route> committed = planner->committed_routes();
  for (std::size_t i = 0; i < committed.size(); i += 2) {
    if (committed[i].end_time() < 200) {
      EXPECT_TRUE(planner->ReleaseRoute(committed[i]));
    }
  }
  planner->PruneBefore(200);

  // Serial PlanRoute on the pruned state for the rest of the day.
  for (; next < queries.size(); ++next) {
    const auto& q = queries[next];
    planner->PlanRoute(q.emergence, q.origin, q.destination);
  }
  ASSERT_TRUE(
      core::RouteSetValidator::IsCollisionFree(planner->committed_routes()));

  // Retire every remaining route at the end of the day. Only these
  // releases leave enough tombstones in one line index to compact it, so
  // they are what exercises the release path's bucket erasure.
  const std::vector<core::Route> rest = planner->committed_routes();
  for (const core::Route& route : rest) {
    EXPECT_TRUE(planner->ReleaseRoute(route));
  }

  const PlannerStats& s = planner->stats();
  EXPECT_EQ(s.queries, golden.queries);
  EXPECT_EQ(s.failures, golden.failures);
  EXPECT_EQ(s.fallbacks, golden.fallbacks);
  EXPECT_EQ(s.rescues, golden.rescues);
  EXPECT_EQ(s.fallback_reasons, golden.fallback_reasons);
  EXPECT_EQ(s.expanded_nodes, golden.expanded_nodes);
  EXPECT_EQ(s.speculative_routes, golden.speculative_routes);
  EXPECT_EQ(s.speculative_invalidated, golden.speculative_invalidated);
  EXPECT_EQ(s.routes_released, golden.routes_released);
  EXPECT_EQ(s.routes_pruned, golden.routes_pruned);
  EXPECT_EQ(s.candidates_examined, golden.candidates_examined);
  EXPECT_EQ(s.blocks_scanned, golden.blocks_scanned);
  EXPECT_EQ(s.blocks_skipped, golden.blocks_skipped);
  EXPECT_EQ(s.candidates_pruned_by_summary,
            golden.candidates_pruned_by_summary);
  EXPECT_EQ(s.buckets_erased, golden.buckets_erased);
  // Counters no SRP path feeds.
  EXPECT_EQ(s.replans, 0);
  EXPECT_EQ(s.cache_hits, 0);
  EXPECT_EQ(s.static_path_hits, 0);
  EXPECT_EQ(s.kernel_lanes_processed, 0);
  EXPECT_EQ(s.kernel_lanes_survived, 0);
  EXPECT_EQ(s.shard_commits + s.shard_lock_contentions +
                s.shard_commit_retries,
            0);
  EXPECT_EQ(s.collision_kernel, core::CollisionKernel::kScalar);
  EXPECT_EQ(s.heuristic_hits + s.heuristic_misses + s.heuristic_evictions +
                s.heuristic_rebuilds + s.heuristic_prefetch_late,
            0);
  EXPECT_EQ(s.heuristic_bytes, 0u);
  EXPECT_EQ(s.heuristic_build_seconds + s.heuristic_prefetch_build_seconds,
            0.0);
  if (HasFailure()) PrintCounters(s);
}

INSTANTIATE_TEST_SUITE_P(
    SrpBackends, PlannerStatsGoldenTest,
    // Recorded while stats() still summed the stores' own counters, so they
    // pin that the per-call sinks count exactly what the stores counted.
    // The four scan counters (candidates .. summary-pruned) were recorded
    // again when a settled label's exits began sharing intra-strip answers
    // (StripExits), which issues fewer probes for the same routes.
    ::testing::Values(
        Golden{"SRP", 364, 0, 9, 24, {9, 0, 0, 0}, 2173, 95, 4, 337, 23,
               51470, 42888, 20176, 934687, 0},
        Golden{"SRP-indexed", 364, 0, 9, 24, {9, 0, 0, 0}, 2173, 95, 4, 337,
               23, 57142, 76612, 5495, 81778, 3376}),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name = info.param.tag;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace carp
