// PlannerStats::Merge is a field-wise sum over every counter and leaves the
// labels alone. The tables below list every field; the static_assert on
// sizeof(PlannerStats) stops a new field from compiling until it is listed
// here (and so checked against Merge).

#include <array>
#include <cstddef>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/planner.h"

namespace carp::core {
namespace {

constexpr std::array<std::int64_t PlannerStats::*, 27> kCounters = {
    &PlannerStats::queries,
    &PlannerStats::failures,
    &PlannerStats::fallbacks,
    &PlannerStats::rescues,
    &PlannerStats::replans,
    &PlannerStats::cache_hits,
    &PlannerStats::static_path_hits,
    &PlannerStats::expanded_nodes,
    &PlannerStats::speculative_routes,
    &PlannerStats::speculative_invalidated,
    &PlannerStats::routes_released,
    &PlannerStats::routes_pruned,
    &PlannerStats::heuristic_hits,
    &PlannerStats::heuristic_misses,
    &PlannerStats::heuristic_evictions,
    &PlannerStats::heuristic_rebuilds,
    &PlannerStats::heuristic_prefetch_late,
    &PlannerStats::candidates_examined,
    &PlannerStats::blocks_scanned,
    &PlannerStats::blocks_skipped,
    &PlannerStats::candidates_pruned_by_summary,
    &PlannerStats::kernel_lanes_processed,
    &PlannerStats::kernel_lanes_survived,
    &PlannerStats::shard_commits,
    &PlannerStats::shard_lock_contentions,
    &PlannerStats::shard_commit_retries,
    &PlannerStats::buckets_erased,
};
constexpr std::array<double PlannerStats::*, 2> kSecondsCounters = {
    &PlannerStats::heuristic_build_seconds,
    &PlannerStats::heuristic_prefetch_build_seconds,
};

// The listed counters, the fallback_reasons array, heuristic_bytes and the
// two enum labels account for every byte: a field missing from the tables
// fails here.
static_assert(sizeof(PlannerStats) ==
                  (kCounters.size() + kFallbackReasonCount) *
                          sizeof(std::int64_t) +
                      sizeof(std::size_t) +
                      kSecondsCounters.size() * sizeof(double) +
                      sizeof(CollisionKernel) + sizeof(SearchEngine),
              "a PlannerStats field is missing from the Merge test tables");

TEST(PlannerStatsMergeTest, SumsEveryCounterFieldWise) {
  PlannerStats a;
  PlannerStats b;
  // Distinct values for every field, so a swapped or skipped term shows.
  std::int64_t k = 1;
  auto fill = [&](std::int64_t PlannerStats::*field) {
    a.*field = k;
    b.*field = 1000 * k;
    ++k;
  };
  for (auto field : kCounters) fill(field);
  for (std::size_t r = 0; r < kFallbackReasonCount; ++r) {
    a.fallback_reasons[r] = k;
    b.fallback_reasons[r] = 1000 * k;
    ++k;
  }
  a.heuristic_bytes = static_cast<std::size_t>(k);
  b.heuristic_bytes = static_cast<std::size_t>(1000 * k);
  for (auto field : kSecondsCounters) {
    a.*field = 0.25 * static_cast<double>(++k);
    b.*field = 250.0 * static_cast<double>(k);
  }
  a.collision_kernel = CollisionKernel::kAvx2;
  b.collision_kernel = CollisionKernel::kScalar;
  a.search_engine = SearchEngine::kAstar;
  b.search_engine = SearchEngine::kAuto;

  const PlannerStats before = a;
  a.Merge(b);

  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    const auto field = kCounters[i];
    EXPECT_EQ(a.*field, before.*field + b.*field) << "counter " << i;
  }
  for (std::size_t r = 0; r < kFallbackReasonCount; ++r) {
    EXPECT_EQ(a.fallback_reasons[r],
              before.fallback_reasons[r] + b.fallback_reasons[r])
        << "fallback reason " << r;
  }
  EXPECT_EQ(a.heuristic_bytes, before.heuristic_bytes + b.heuristic_bytes);
  for (std::size_t i = 0; i < kSecondsCounters.size(); ++i) {
    const auto field = kSecondsCounters[i];
    EXPECT_EQ(a.*field, before.*field + b.*field) << "seconds counter " << i;
  }
  EXPECT_EQ(a.collision_kernel, CollisionKernel::kAvx2);
  EXPECT_EQ(a.search_engine, SearchEngine::kAstar);
}

}  // namespace
}  // namespace carp::core
