#include "layout/layout_generator.h"

#include <optional>

#include "common/logging.h"
#include "common/rng.h"
#include "core/spatial_paths.h"

namespace carp::layout {

namespace {

// Places rack clusters: bands of cluster_length rows separated by cross
// aisles, columns of cluster_cols separated by longitudinal aisles, all
// inside the margin ring.
void PlaceRacks(const LayoutConfig& cfg, core::WarehouseMatrix& m) {
  const std::int32_t row_lo = cfg.margin;
  const std::int32_t row_hi = cfg.height - cfg.margin;  // exclusive
  const std::int32_t col_lo = cfg.margin;
  const std::int32_t col_hi = cfg.width - cfg.margin;  // exclusive

  for (std::int32_t band = row_lo; band + cfg.cluster_length <= row_hi;
       band += cfg.cluster_length + cfg.cross_aisle_height) {
    for (std::int32_t c = col_lo; c + cfg.cluster_cols <= col_hi;
         c += cfg.cluster_cols + cfg.aisle_width) {
      for (std::int32_t i = 0; i < cfg.cluster_length; ++i) {
        for (std::int32_t j = 0; j < cfg.cluster_cols; ++j) {
          m.SetRack({band + i, c + j}, true);
        }
      }
    }
  }
}

// Picks, for a rack cell, an adjacent aisle cell (west/east preferred: the
// longitudinal aisles flank every 2-wide cluster).
std::optional<GridCoord> AccessCellFor(const core::WarehouseMatrix& m,
                                       GridCoord rack) {
  static constexpr std::int32_t kDr[] = {0, 0, -1, 1};
  static constexpr std::int32_t kDc[] = {-1, 1, 0, 0};
  for (int k = 0; k < 4; ++k) {
    GridCoord nb{rack.row + kDr[k], rack.col + kDc[k]};
    if (m.IsTraversable(nb)) return nb;
  }
  return std::nullopt;
}

// Evenly samples `count` cells along the perimeter ring one cell inside the
// border, skipping non-traversable positions. Marks each picked cell in
// `is_picker`, a row-major bitmap of the matrix.
std::vector<GridCoord> PlacePickers(const core::WarehouseMatrix& m,
                                    std::int32_t count,
                                    std::vector<bool>& is_picker) {
  std::vector<GridCoord> ring;
  const std::int32_t h = m.height();
  const std::int32_t w = m.width();
  const std::int32_t r0 = 1, r1 = h - 2, c0 = 1, c1 = w - 2;
  for (std::int32_t c = c0; c <= c1; ++c) ring.push_back({r0, c});
  for (std::int32_t r = r0 + 1; r <= r1; ++r) ring.push_back({r, c1});
  for (std::int32_t c = c1 - 1; c >= c0; --c) ring.push_back({r1, c});
  for (std::int32_t r = r1 - 1; r > r0; --r) ring.push_back({r, c0});

  std::vector<GridCoord> pickers;
  if (count <= 0 || ring.empty()) return pickers;
  const double step =
      static_cast<double>(ring.size()) / static_cast<double>(count);
  for (std::int32_t k = 0; k < count; ++k) {
    std::size_t idx = static_cast<std::size_t>(k * step);
    // Advance past any non-traversable ring cell (margins are open, so this
    // rarely triggers).
    for (std::size_t probe = 0; probe < ring.size(); ++probe) {
      GridCoord g = ring[(idx + probe) % ring.size()];
      const std::size_t cell = static_cast<std::size_t>(g.row) * w + g.col;
      if (m.IsTraversable(g) && !is_picker[cell]) {
        is_picker[cell] = true;
        pickers.push_back(g);
        break;
      }
    }
  }
  return pickers;
}

}  // namespace

Warehouse GenerateWarehouse(const LayoutConfig& config) {
  CARP_CHECK(config.height > 2 * config.margin &&
             config.width > 2 * config.margin)
      << "margin leaves no storage area";
  CARP_CHECK(config.cluster_length >= 1 && config.cluster_cols >= 1);
  CARP_CHECK(config.aisle_width >= 1 && config.cross_aisle_height >= 1);

  Warehouse w;
  w.config = config;
  w.matrix = core::WarehouseMatrix(config.height, config.width);
  PlaceRacks(config, w.matrix);

  for (std::int32_t i = 0; i < config.height; ++i) {
    for (std::int32_t j = 0; j < config.width; ++j) {
      GridCoord g{i, j};
      if (!w.matrix.IsRack(g)) continue;
      if (auto access = AccessCellFor(w.matrix, g)) {
        w.racks.push_back(g);
        w.rack_access.push_back(*access);
      }
    }
  }
  CARP_CHECK(!w.racks.empty()) << "layout has no accessible racks";

  std::vector<bool> is_picker(
      static_cast<std::size_t>(config.height) * config.width);
  w.pickers = PlacePickers(w.matrix, config.num_pickers, is_picker);
  CARP_CHECK(static_cast<std::int32_t>(w.pickers.size()) ==
             config.num_pickers)
      << "could not place all pickers";

  // Robot homes: spread deterministically over aisle cells not used by
  // pickers.
  Rng rng(config.seed);
  std::vector<GridCoord> aisles;
  for (std::int32_t i = 0; i < config.height; ++i) {
    for (std::int32_t j = 0; j < config.width; ++j) {
      GridCoord g{i, j};
      if (w.matrix.IsTraversable(g) &&
          !is_picker[static_cast<std::size_t>(i) * config.width + j]) {
        aisles.push_back(g);
      }
    }
  }
  CARP_CHECK(static_cast<std::int32_t>(aisles.size()) >= config.num_robots)
      << "not enough aisle cells for robot fleet";
  rng.Shuffle(aisles);
  w.robot_homes.assign(aisles.begin(), aisles.begin() + config.num_robots);

  CARP_CHECK(core::SpatialPathFinder::AislesConnected(w.matrix))
      << "generated aisles are disconnected";
  return w;
}

}  // namespace carp::layout
