#include "lns/lns_refiner.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"

namespace carp::lns {
namespace {

std::uint64_t CellKey(GridCoord c) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.row))
          << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.col));
}

std::int64_t Manhattan(GridCoord a, GridCoord b) {
  const std::int64_t dr = static_cast<std::int64_t>(a.row) - b.row;
  const std::int64_t dc = static_cast<std::int64_t>(a.col) - b.col;
  return (dr < 0 ? -dr : dr) + (dc < 0 ? -dc : dc);
}

}  // namespace

LnsRefiner::LnsRefiner(core::Planner& planner, const LnsOptions& options)
    : planner_(planner), options_(options), rng_(options.seed) {
  if (options_.neighborhood < 2) options_.neighborhood = 2;
}

NeighborhoodPolicy LnsRefiner::NextPolicy() {
  if (options_.policy.has_value()) return *options_.policy;
  const NeighborhoodPolicy p = static_cast<NeighborhoodPolicy>(policy_cursor_);
  policy_cursor_ = (policy_cursor_ + 1) % 3;
  return p;
}

void LnsRefiner::SelectNeighborhood(const std::vector<LnsCandidate>& live,
                                    std::vector<std::size_t>& out) {
  out.clear();
  const std::size_t n = live.size();
  const std::size_t k = std::min(options_.neighborhood, n);
  switch (NextPolicy()) {
    case NeighborhoodPolicy::kRandom: {
      // Partial Fisher-Yates over the index range: k distinct uniform picks.
      std::vector<std::size_t> idx(n);
      for (std::size_t i = 0; i < n; ++i) idx[i] = i;
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j =
            i + rng_.UniformU32(static_cast<std::uint32_t>(n - i));
        std::swap(idx[i], idx[j]);
        out.push_back(idx[i]);
      }
      break;
    }
    case NeighborhoodPolicy::kConflictHotspot: {
      // A contended cell sampled with probability proportional to its
      // dwell count over all live routes, then the k routes passing
      // nearest to it. Sampling (rather than the argmax) keeps successive
      // hotspot iterations from deterministically re-picking one
      // neighborhood whose repair already failed: every contended region
      // eventually gets its destruction turn.
      std::unordered_map<std::uint64_t, std::int64_t> dwell;
      for (const LnsCandidate& c : live) {
        for (const GridCoord& cell : c.route.cells()) ++dwell[CellKey(cell)];
      }
      std::vector<std::uint64_t> keys;
      std::vector<double> weights;
      keys.reserve(dwell.size());
      weights.reserve(dwell.size());
      for (const auto& [key, count] : dwell) {
        if (count < 2) continue;  // uncontended cells are not hotspots
        keys.push_back(key);
        weights.push_back(static_cast<double>(count * count));
      }
      std::uint64_t hot_key;
      if (keys.empty()) {
        hot_key = dwell.empty() ? 0 : dwell.begin()->first;
      } else {
        // Hash-map iteration order is unspecified, so fix a deterministic
        // key order before the weighted draw.
        std::vector<std::size_t> order(keys.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&](std::size_t a,
                                                  std::size_t b) {
          return keys[a] < keys[b];
        });
        std::vector<double> ordered_weights(order.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
          ordered_weights[i] = weights[order[i]];
        }
        hot_key = keys[order[rng_.WeightedIndex(ordered_weights)]];
      }
      const GridCoord hotspot{
          static_cast<std::int32_t>(hot_key >> 32),
          static_cast<std::int32_t>(hot_key & 0xffffffffULL)};
      std::vector<std::pair<std::int64_t, std::size_t>> scored(n);
      for (std::size_t i = 0; i < n; ++i) {
        std::int64_t best = std::numeric_limits<std::int64_t>::max();
        for (const GridCoord& cell : live[i].route.cells()) {
          best = std::min(best, Manhattan(cell, hotspot));
        }
        scored[i] = {best, i};
      }
      std::sort(scored.begin(), scored.end());
      for (std::size_t i = 0; i < k; ++i) out.push_back(scored[i].second);
      break;
    }
    case NeighborhoodPolicy::kStripLocality: {
      // A random seed route plus the k-1 routes sharing the most locality
      // buckets (strips) with it.
      const std::size_t seed_idx =
          rng_.UniformU32(static_cast<std::uint32_t>(n));
      std::unordered_set<std::int64_t> buckets;
      for (const GridCoord& cell : live[seed_idx].route.cells()) {
        buckets.insert(options_.locality_of ? options_.locality_of(cell)
                                            : static_cast<std::int64_t>(
                                                  cell.col));
      }
      std::vector<std::pair<std::int64_t, std::size_t>> scored;
      scored.reserve(n - 1);
      for (std::size_t i = 0; i < n; ++i) {
        if (i == seed_idx) continue;
        std::int64_t overlap = 0;
        for (const GridCoord& cell : live[i].route.cells()) {
          const std::int64_t b =
              options_.locality_of ? options_.locality_of(cell)
                                   : static_cast<std::int64_t>(cell.col);
          if (buckets.count(b) != 0) ++overlap;
        }
        scored.emplace_back(-overlap, i);  // descending overlap, ties by index
      }
      std::sort(scored.begin(), scored.end());
      out.push_back(seed_idx);
      for (std::size_t i = 0; i + 1 < k && i < scored.size(); ++i) {
        out.push_back(scored[i].second);
      }
      break;
    }
  }
  // Repair order: most expensive member first — the delayed route gets
  // first pick of the corridors its blockers just vacated.
  std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
    const std::int64_t ca = planner_.RouteCost(live[a].route);
    const std::int64_t cb = planner_.RouteCost(live[b].route);
    return ca != cb ? ca > cb : a < b;
  });
}

void LnsRefiner::ReleaseAll(const std::vector<core::Route>& routes) {
  for (std::size_t i = routes.size(); i > 0; --i) {
    const bool released = planner_.ReleaseRoute(routes[i - 1]);
    CARP_CHECK(released)
        << "LNS rollback could not release a route it committed this "
           "iteration — planner state mutated mid-iteration";
    ++stats_.routes_released;
  }
}

bool LnsRefiner::Iterate(std::vector<LnsCandidate>& live) {
  if (live.size() < 2) return false;
  ++stats_.iterations;

  SelectNeighborhood(live, picked_);
  const std::size_t k = picked_.size();

  std::int64_t old_cost = 0;
  for (const std::size_t idx : picked_) {
    old_cost += planner_.RouteCost(live[idx].route);
  }

  // Destroy: release the neighborhood. A member whose state was already
  // pruned cannot be rolled back exactly, so the iteration backs out of a
  // partial destroy by recommitting the released prefix.
  std::size_t released = 0;
  for (; released < k; ++released) {
    if (!planner_.ReleaseRoute(live[picked_[released]].route)) break;
    ++stats_.routes_released;
  }
  if (released < k) {
    for (std::size_t j = released; j > 0; --j) {
      planner_.CommitRoute(live[picked_[j - 1]].route);
    }
    ++stats_.failed_repairs;
    ++stats_.rollbacks;
    return false;
  }

  // Repair, stage 1 (optional): speculative queries for every member, run
  // concurrently against the neighborhood-free committed state. Each task
  // writes its own slot, so pool scheduling cannot affect the outcome.
  const bool speculate =
      options_.pool != nullptr && planner_.SupportsSpeculation();
  speculative_.assign(k, std::nullopt);
  if (speculate) {
    if (contexts_.size() < k) contexts_.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      if (!contexts_[j]) contexts_[j] = planner_.MakeQueryContext();
    }
    for (std::size_t j = 0; j < k; ++j) {
      const LnsCandidate& member = live[picked_[j]];
      options_.pool->Submit([this, j, &member] {
        speculative_[j] =
            planner_.QueryRoute(*contexts_[j], member.emerge,
                                member.route.origin(),
                                member.route.destination());
      });
    }
    options_.pool->WaitIdle();
    for (std::size_t j = 0; j < k; ++j) {
      planner_.AbsorbQueryContext(*contexts_[j]);
    }
  }

  // Repair, stage 2: serial validate-then-commit in repair order. A
  // speculative route is used when it survives validation against the
  // members repaired before it; otherwise the member replans serially.

  checker_.Clear();
  committed_new_.clear();
  bool repair_ok = true;
  for (std::size_t j = 0; j < k; ++j) {
    const LnsCandidate& member = live[picked_[j]];
    if (speculative_[j].has_value() && !checker_.Conflicts(*speculative_[j])) {
      const core::Route& route = *speculative_[j];
      ++stats_.speculative_repairs;
      planner_.CommitRoute(route);
      checker_.Add(route);
      committed_new_.push_back(route);
      ++stats_.routes_replanned;
      continue;
    }
    const std::optional<core::Route> route =
        planner_.PlanRoute(member.emerge, member.route.origin(),
                           member.route.destination());
    if (!route.has_value()) {
      repair_ok = false;
      break;
    }
    checker_.Add(*route);
    committed_new_.push_back(*route);
    ++stats_.routes_replanned;
  }

  std::int64_t new_cost = 0;
  for (const core::Route& route : committed_new_) {
    new_cost += planner_.RouteCost(route);
  }

  if (repair_ok && new_cost < old_cost) {
    for (std::size_t j = 0; j < k; ++j) {
      live[picked_[j]].route = committed_new_[j];
    }
    ++stats_.accepted;
    stats_.cost_improvement += old_cost - new_cost;
    return true;
  }

  // Rollback: release everything the repair committed, then recommit the
  // originals through the planner's own commit path. Release is exact and
  // commit re-derives the canonical decomposition, so this is a true no-op
  // (StateFingerprint-identical); the fuzzer's kLostRollback fault exists
  // to prove the audits would catch a planner for which it is not.
  ReleaseAll(committed_new_);
  for (const std::size_t idx : picked_) {
    planner_.CommitRoute(live[idx].route);
  }
  if (repair_ok) {
    ++stats_.rejected;
  } else {
    ++stats_.failed_repairs;
  }
  ++stats_.rollbacks;
  return false;
}

}  // namespace carp::lns
