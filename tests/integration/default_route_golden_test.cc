// Golden default-route test: every backend, built through MakePlanner with
// its defaults, plans one fixed-seed W-1 stream and must commit exactly
// the routes recorded below. The constants pin the default path end to
// end (collision kernel, open list, space-time A*, weighted Manhattan
// bound), so a refactor that claims "routes unchanged" is checked, not
// assumed.
//
// The digest is order-independent (a sum of per-route hashes), so it pins
// the committed multiset, not the commit bookkeeping.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "baselines/planner_factory.h"
#include "core/collision.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"
#include "workload/request_stream.h"
#include "workload/task_generator.h"

namespace carp {
namespace {

std::uint64_t Mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t HashRoute(const core::Route& route) {
  std::uint64_t h = Mix64(static_cast<std::uint64_t>(route.start_time()));
  for (const GridCoord& c : route.cells()) {
    h = Mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                       c.row))
                   << 32) ^
              static_cast<std::uint32_t>(c.col));
  }
  return h;
}

struct Golden {
  const char* tag;
  std::uint64_t digest;
  std::int64_t total_cost;
};

void PrintTo(const Golden& g, std::ostream* os) { *os << g.tag; }

class DefaultRouteGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(DefaultRouteGoldenTest, MatchesRecordedRoutes) {
  const Golden& golden = GetParam();
  const std::string tag = golden.tag;
  const layout::Warehouse warehouse =
      layout::GenerateWarehouse(layout::PresetW1());
  workload::TaskGeneratorOptions topts;
  topts.task_count = 200;
  topts.day_length = 300;
  topts.seed = 15;
  const auto tasks = workload::GenerateTasks(
      warehouse, workload::ArrivalProfile::DoubleSurge(), topts);
  const auto queries = workload::FlattenToQueries(warehouse, tasks);

  auto planner = baselines::MakePlanner(tag, warehouse.matrix);
  ASSERT_NE(planner, nullptr);
  for (const auto& q : queries) {
    planner->PlanRoute(q.emergence, q.origin, q.destination);
  }

  const auto& routes = planner->committed_routes();
  ASSERT_TRUE(core::RouteSetValidator::IsCollisionFree(routes));
  std::uint64_t digest = 0;
  std::int64_t total_cost = 0;
  for (const core::Route& route : routes) {
    digest += HashRoute(route);
    total_cost += planner->RouteCost(route);
  }
  EXPECT_EQ(digest, golden.digest) << tag;
  EXPECT_EQ(total_cost, golden.total_cost) << tag;
  // No default path builds distance tables: the frozen-ABI heuristic
  // counters must read zero.
  EXPECT_EQ(planner->stats().heuristic_bytes, 0u) << tag;
  EXPECT_EQ(planner->stats().heuristic_misses, 0) << tag;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, DefaultRouteGoldenTest,
    ::testing::Values(
        Golden{"SAP", 11001787390148023112ULL, 227989},
        Golden{"RP", 11001787390148023112ULL, 227989},
        Golden{"TWP", 6960769855112265647ULL, 228109},
        Golden{"ACP", 2328675491854859994ULL, 228040},
        Golden{"SRP", 17842876566572992843ULL, 228460},
        Golden{"SRP-indexed", 17842876566572992843ULL, 228460}),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name = info.param.tag;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace carp
