// Differential fuzz driver for the segment stores and the planner
// lifecycle (DESIGN.md §2d). Runs clean by default; on a divergence it
// prints the failing seed and the tail of the op log and exits nonzero, so
// CI can archive the report and a developer can replay with --seed=<S>.
//
// Usage:
//   fuzz_store [--seeds=N] [--seed=S] [--ops=N] [--planner-scenarios=N]
//
//   --seeds=N              seeds S, S+1, ..., S+N-1 (default 50)
//   --seed=S               first seed (default 1); use a reported failing
//                          seed with --seeds=1 to replay one stream
//   --ops=N                operations per seed (default 512)
//   --planner-scenarios=N  planner-level differential scenarios (default 2;
//                          0 skips the planner stage)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/planner_differential.h"
#include "check/store_fuzzer.h"

namespace {

bool ParseInt64Flag(const char* arg, const char* name, std::int64_t* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::strtoll(arg + len + 1, nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t seeds = 50;
  std::int64_t first_seed = 1;
  std::int64_t ops = 512;
  std::int64_t planner_scenarios = 2;

  for (int i = 1; i < argc; ++i) {
    if (ParseInt64Flag(argv[i], "--seeds", &seeds) ||
        ParseInt64Flag(argv[i], "--seed", &first_seed) ||
        ParseInt64Flag(argv[i], "--ops", &ops) ||
        ParseInt64Flag(argv[i], "--planner-scenarios", &planner_scenarios)) {
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
    return 2;
  }

  // ---- Stage 1: store differential fuzz.
  carp::check::StoreFuzzOptions opt;
  opt.seed = static_cast<std::uint64_t>(first_seed);
  opt.num_seeds = static_cast<int>(seeds);
  opt.ops_per_seed = static_cast<int>(ops);
  const auto factories = carp::check::DefaultStoreFactories();
  const auto store_result = carp::check::FuzzStores(opt, factories);
  if (!store_result.ok) {
    std::fprintf(stderr, "FAIL: %s\n", store_result.error.c_str());
    std::fprintf(stderr,
                 "replay: fuzz_store --seed=%llu --seeds=1 --ops=%lld\n",
                 static_cast<unsigned long long>(store_result.failing_seed),
                 static_cast<long long>(ops));
    return 1;
  }
  std::printf("store fuzz: %lld seeds, %lld ops, all stores agree\n",
              static_cast<long long>(seeds),
              static_cast<long long>(store_result.ops_executed));

  // ---- Stage 1b: lifecycle-rollback fuzz (DESIGN.md §2i). Interleaves
  // release / replan / rollback at store granularity; a rolled-back repair
  // must leave every store bit-identical to the reference.
  carp::check::LifecycleFuzzOptions lifecycle_opt;
  lifecycle_opt.seed = static_cast<std::uint64_t>(first_seed);
  lifecycle_opt.num_seeds = static_cast<int>(seeds);
  const auto lifecycle_result =
      carp::check::FuzzLifecycleRollback(lifecycle_opt,
                                         /*inject_lost_rollback=*/false);
  if (!lifecycle_result.ok) {
    std::fprintf(stderr, "FAIL: %s\n", lifecycle_result.error.c_str());
    std::fprintf(stderr, "replay: fuzz_store --seed=%llu --seeds=1\n",
                 static_cast<unsigned long long>(
                     lifecycle_result.failing_seed));
    return 1;
  }
  std::printf(
      "lifecycle rollback fuzz: %lld seeds, %lld rounds, rollbacks exact\n",
      static_cast<long long>(seeds),
      static_cast<long long>(lifecycle_result.ops_executed));

  // ---- Stage 2: planner-level differential scenarios. Alternate the
  // lifecycle knobs so both the retire/prune path and the keep-everything
  // path are exercised.
  for (std::int64_t i = 0; i < planner_scenarios; ++i) {
    carp::check::PlannerDiffOptions popt;
    popt.seed = static_cast<std::uint64_t>(first_seed + i);
    popt.retire_routes = (i % 2 == 0);
    const auto planner_result = carp::check::RunPlannerDifferential(popt);
    if (!planner_result.ok) {
      std::fprintf(stderr, "FAIL: %s\n", planner_result.error.c_str());
      return 1;
    }
    std::printf("planner differential: scenario seed=%llu retire=%d ok\n",
                static_cast<unsigned long long>(popt.seed),
                popt.retire_routes ? 1 : 0);
  }

  std::printf("OK\n");
  return 0;
}
