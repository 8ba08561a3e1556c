// Brute-force space-time references shared by the search tests: an
// earliest-arrival sweep over (cell, t) layers, and the random traffic the
// reference tests feed it.

#ifndef CARP_TESTS_CORE_SPACETIME_REFERENCE_H_
#define CARP_TESTS_CORE_SPACETIME_REFERENCE_H_

#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/reservation_table.h"
#include "core/route.h"
#include "core/spacetime_oracle.h"
#include "core/warehouse.h"

namespace carp::core {

/// Earliest time a robot occupying `origin` at `start` can occupy
/// `destination`, found by breadth-first search over time layers: layer t
/// is every traversable cell reachable at t, and layer t + 1 keeps every
/// wait or 4-neighbour step the oracle allows from it. Nullopt when the
/// origin is taken at `start`, the layers die out, or t would pass
/// start + horizon (Plan's bound).
inline std::optional<TimeStep> BruteForceArrival(
    const WarehouseMatrix& matrix, const SpaceTimeOracle& oracle,
    TimeStep start, GridCoord origin, GridCoord destination,
    TimeStep horizon) {
  if (!matrix.IsTraversable(origin) || !matrix.IsTraversable(destination) ||
      !oracle.IsFree(origin, start)) {
    return std::nullopt;
  }
  const std::size_t cells =
      static_cast<std::size_t>(matrix.height() * matrix.width());
  std::vector<char> layer(cells, 0);
  layer[static_cast<std::size_t>(matrix.Index(origin))] = 1;
  for (TimeStep t = start;; ++t) {
    if (layer[static_cast<std::size_t>(matrix.Index(destination))]) return t;
    if (t + 1 > start + horizon) return std::nullopt;
    std::vector<char> next(cells, 0);
    bool any = false;
    for (std::size_t i = 0; i < cells; ++i) {
      if (!layer[i]) continue;
      const GridCoord cell = matrix.CoordOf(static_cast<std::int64_t>(i));
      GridCoord steps[5] = {cell};
      const int count = 1 + matrix.Neighbors(cell, steps + 1);
      for (int k = 0; k < count; ++k) {
        if (matrix.IsTraversable(steps[k]) &&
            oracle.IsMoveAllowed(cell, steps[k], t)) {
          next[static_cast<std::size_t>(matrix.Index(steps[k]))] = 1;
          any = true;
        }
      }
    }
    if (!any) return std::nullopt;
    layer.swap(next);
  }
}

inline GridCoord RandomTraversable(const WarehouseMatrix& matrix, Rng& rng) {
  for (;;) {
    const GridCoord g{
        static_cast<std::int32_t>(rng.UniformInt(0, matrix.height() - 1)),
        static_cast<std::int32_t>(rng.UniformInt(0, matrix.width() - 1))};
    if (matrix.IsTraversable(g)) return g;
  }
}

/// A random walk from a cell free at `t0` that only takes steps `table`
/// allows, waiting with probability `p_wait`; it ends early when boxed in.
/// Reserving it keeps the table collision-free.
inline Route RandomWalk(const WarehouseMatrix& matrix,
                        const ReservationTable& table, Rng& rng, TimeStep t0,
                        GridCoord from, int steps, double p_wait) {
  std::vector<GridCoord> cells = {from};
  for (TimeStep t = t0; t < t0 + steps; ++t) {
    const GridCoord at = cells.back();
    if (rng.Bernoulli(p_wait) && table.IsMoveAllowed(at, at, t)) {
      cells.push_back(at);
      continue;
    }
    GridCoord options[5] = {at};
    const int count = 1 + matrix.Neighbors(at, options + 1);
    std::vector<GridCoord> allowed;
    for (int k = 0; k < count; ++k) {
      if (matrix.IsTraversable(options[k]) &&
          table.IsMoveAllowed(at, options[k], t)) {
        allowed.push_back(options[k]);
      }
    }
    if (allowed.empty()) break;
    cells.push_back(allowed[rng.UniformU32(
        static_cast<std::uint32_t>(allowed.size()))]);
  }
  return Route(t0, std::move(cells));
}

}  // namespace carp::core

#endif  // CARP_TESTS_CORE_SPACETIME_REFERENCE_H_
