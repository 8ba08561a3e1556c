#include "core/batch_planner.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>

#include "common/logging.h"
#include "core/collision.h"

namespace carp::core {

namespace {

std::vector<std::size_t> PriorityOrder(const std::vector<BatchQuery>& queries,
                                       BatchOrder order) {
  std::vector<std::size_t> indices(queries.size());
  std::iota(indices.begin(), indices.end(), 0);
  if (order != BatchOrder::kAsGiven) {
    std::stable_sort(
        indices.begin(), indices.end(), [&](std::size_t a, std::size_t b) {
          const std::int64_t da = ManhattanDistance(queries[a].origin,
                                                    queries[a].destination);
          const std::int64_t db = ManhattanDistance(queries[b].origin,
                                                    queries[b].destination);
          return order == BatchOrder::kShortestFirst ? da < db : da > db;
        });
  }
  return indices;
}

BatchResult PlanBatchSerial(Planner& planner, TimeStep t,
                            const std::vector<BatchQuery>& queries,
                            const std::vector<std::size_t>& indices) {
  BatchResult result;
  result.routes.resize(queries.size());
  for (std::size_t idx : indices) {
    auto route =
        planner.PlanRoute(t, queries[idx].origin, queries[idx].destination);
    if (route.has_value()) {
      ++result.planned;
      result.makespan = std::max(result.makespan, route->finish_term());
      result.routes[idx] = std::move(route);
    } else {
      ++result.failed;
    }
  }
  return result;
}

BatchResult PlanBatchSpeculative(Planner& planner, TimeStep t,
                                 const std::vector<BatchQuery>& queries,
                                 const std::vector<std::size_t>& indices,
                                 ThreadPool& pool, std::size_t wave_size) {
  // One QueryContext per pool worker; tasks pick theirs by worker index, so
  // no scratch state is ever shared across threads.
  std::vector<std::unique_ptr<Planner::QueryContext>> contexts;
  for (int w = 0; w < pool.size(); ++w) {
    contexts.push_back(planner.MakeQueryContext());
    CARP_CHECK(contexts.back() != nullptr)
        << planner.name() << " claims speculation but returns no context";
  }

  BatchResult result;
  result.routes.resize(queries.size());
  IncrementalConflictChecker committed;
  auto accept = [&](std::size_t idx, Route route) {
    committed.Add(route);
    ++result.planned;
    result.makespan = std::max(result.makespan, route.finish_term());
    result.routes[idx] = std::move(route);
  };

  // The batch is processed in priority-order *waves*. Validating every
  // speculative route against the whole batch would invalidate most of a
  // large contended batch (the k-th route must dodge k-1 snapshot-blind
  // peers); per wave it only has to survive the <= wave_size - 1 routes
  // speculated alongside it, and each new wave re-reads the committed
  // state the previous waves just produced.
  std::vector<std::optional<Route>> speculative(queries.size());
  for (std::size_t begin = 0; begin < indices.size(); begin += wave_size) {
    const std::size_t end = std::min(begin + wave_size, indices.size());

    // ---- Query phase: the wave's queries planned concurrently against the
    // frozen committed state (no commit runs while the pool is busy).
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t idx = indices[k];
      pool.Submit([&, idx] {
        const int w = ThreadPool::CurrentWorkerIndex();
        speculative[idx] =
            planner.QueryRoute(*contexts[static_cast<std::size_t>(w)], t,
                               queries[idx].origin, queries[idx].destination);
      });
    }
    pool.WaitIdle();

    // ---- Commit pass: sequential, in priority order. A speculative route
    // is valid exactly when it does not conflict with a route committed
    // before it in this wave — speculation already guaranteed freedom
    // against everything committed earlier. Only valid routes commit, so a
    // loser never touches planner state; invalidated (or speculatively
    // unroutable) queries re-plan serially against live state, exactly
    // like the serial loop.
    committed.Clear();
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t idx = indices[k];
      std::optional<Route>& spec = speculative[idx];
      if (spec.has_value()) {
        ++result.speculated;
        if (!committed.Conflicts(*spec)) {
          planner.CommitRoute(*spec);
          accept(idx, std::move(*spec));
          continue;
        }
        ++result.invalidated;
      }
      auto route =
          planner.PlanRoute(t, queries[idx].origin, queries[idx].destination);
      if (route.has_value()) {
        accept(idx, std::move(*route));
      } else {
        ++result.failed;
      }
    }
  }
  for (auto& context : contexts) planner.AbsorbQueryContext(*context);
  planner.NoteSpeculation(result.speculated, result.invalidated);
  return result;
}

}  // namespace

const char* ToString(BatchOrder order) {
  switch (order) {
    case BatchOrder::kAsGiven:
      return "as-given";
    case BatchOrder::kShortestFirst:
      return "shortest-first";
    case BatchOrder::kLongestFirst:
      return "longest-first";
  }
  return "?";
}

BatchResult PlanBatch(Planner& planner, TimeStep t,
                      const std::vector<BatchQuery>& queries,
                      BatchOrder order) {
  BatchPlanOptions options;
  options.order = order;
  return PlanBatch(planner, t, queries, options);
}

BatchResult PlanBatch(Planner& planner, TimeStep t,
                      const std::vector<BatchQuery>& queries,
                      const BatchPlanOptions& options) {
  const std::vector<std::size_t> indices =
      PriorityOrder(queries, options.order);
  const int workers =
      options.pool != nullptr ? options.pool->size() : options.threads;
  const std::size_t wave_size =
      options.wave_size > 0
          ? static_cast<std::size_t>(options.wave_size)
          : std::max<std::size_t>(16, 4 * static_cast<std::size_t>(workers));
  // A speculative round only pays from one full wave up: below it the pool
  // hand-off and the per-worker QueryContexts cost more than the overlap
  // saves, so a smaller batch plans on the calling thread.
  if (options.threads <= 1 || !planner.SupportsSpeculation() ||
      queries.size() < wave_size) {
    return PlanBatchSerial(planner, t, queries, indices);
  }
  ThreadPool* pool = options.pool;
  std::optional<ThreadPool> transient;
  if (pool == nullptr) {
    transient.emplace(options.threads);
    pool = &*transient;
  }
  return PlanBatchSpeculative(planner, t, queries, indices, *pool, wave_size);
}

}  // namespace carp::core
