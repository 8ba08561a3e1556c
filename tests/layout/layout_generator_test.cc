#include "layout/layout_generator.h"

#include <algorithm>
#include <ostream>
#include <set>

#include <gtest/gtest.h>

#include "core/spatial_paths.h"
#include "layout/presets.h"

namespace carp::layout {
namespace {

TEST(LayoutGeneratorTest, TinyPresetBasicInvariants) {
  Warehouse w = GenerateWarehouse(PresetTiny());
  EXPECT_EQ(w.matrix.height(), 40);
  EXPECT_EQ(w.matrix.width(), 30);
  EXPECT_GT(w.matrix.RackCount(), 0);
  EXPECT_EQ(w.pickers.size(), 6u);
  EXPECT_EQ(w.robot_homes.size(), 12u);
  EXPECT_TRUE(core::SpatialPathFinder::AislesConnected(w.matrix));
}

TEST(LayoutGeneratorTest, EveryRackHasAisleAccess) {
  Warehouse w = GenerateWarehouse(PresetTiny());
  ASSERT_EQ(w.racks.size(), w.rack_access.size());
  for (std::size_t i = 0; i < w.racks.size(); ++i) {
    EXPECT_TRUE(w.matrix.IsRack(w.racks[i]));
    EXPECT_TRUE(w.matrix.IsTraversable(w.rack_access[i]));
    EXPECT_EQ(ManhattanDistance(w.racks[i], w.rack_access[i]), 1);
  }
  // With 2-wide clusters, every rack cell is accessible.
  EXPECT_EQ(static_cast<std::int64_t>(w.racks.size()),
            w.matrix.RackCount());
}

TEST(LayoutGeneratorTest, PickersAreDistinctTraversableCells) {
  Warehouse w = GenerateWarehouse(PresetSmall());
  std::set<GridCoord> unique(w.pickers.begin(), w.pickers.end());
  EXPECT_EQ(unique.size(), w.pickers.size());
  for (GridCoord p : w.pickers) {
    EXPECT_TRUE(w.matrix.IsTraversable(p));
  }
}

TEST(LayoutGeneratorTest, RobotHomesAreDistinctAndAvoidPickers) {
  Warehouse w = GenerateWarehouse(PresetSmall());
  std::set<GridCoord> homes(w.robot_homes.begin(), w.robot_homes.end());
  EXPECT_EQ(homes.size(), w.robot_homes.size());
  for (GridCoord h : w.robot_homes) {
    EXPECT_TRUE(w.matrix.IsTraversable(h));
    EXPECT_EQ(std::count(w.pickers.begin(), w.pickers.end(), h), 0);
  }
}

TEST(LayoutGeneratorTest, MarginRingIsOpen) {
  LayoutConfig c = PresetTiny();
  Warehouse w = GenerateWarehouse(c);
  for (std::int32_t j = 0; j < c.width; ++j) {
    for (std::int32_t i = 0; i < c.margin; ++i) {
      EXPECT_FALSE(w.matrix.IsRack({i, j}));
      EXPECT_FALSE(w.matrix.IsRack({c.height - 1 - i, j}));
    }
  }
}

TEST(LayoutGeneratorTest, ClustersAreExactlyTwoByL) {
  LayoutConfig c = PresetTiny();
  Warehouse w = GenerateWarehouse(c);
  // Every rack cell sits in a horizontal run of exactly cluster_cols cells
  // and a vertical run of exactly cluster_length cells.
  for (std::int32_t i = 0; i < c.height; ++i) {
    for (std::int32_t j = 0; j < c.width; ++j) {
      if (!w.matrix.IsRack({i, j})) continue;
      int h_run = 1;
      for (std::int32_t k = j - 1; k >= 0 && w.matrix.IsRack({i, k}); --k)
        ++h_run;
      for (std::int32_t k = j + 1; k < c.width && w.matrix.IsRack({i, k});
           ++k)
        ++h_run;
      EXPECT_EQ(h_run, c.cluster_cols);
      int v_run = 1;
      for (std::int32_t k = i - 1; k >= 0 && w.matrix.IsRack({k, j}); --k)
        ++v_run;
      for (std::int32_t k = i + 1; k < c.height && w.matrix.IsRack({k, j});
           ++k)
        ++v_run;
      EXPECT_EQ(v_run, c.cluster_length);
    }
  }
}

TEST(LayoutGeneratorTest, DeterministicForSameConfig) {
  Warehouse a = GenerateWarehouse(PresetTiny());
  Warehouse b = GenerateWarehouse(PresetTiny());
  EXPECT_EQ(a.matrix.ToAscii(), b.matrix.ToAscii());
  EXPECT_EQ(a.robot_homes, b.robot_homes);
  EXPECT_EQ(a.pickers, b.pickers);
}

struct PresetExpectation {
  const char* name;
  std::int32_t height;
  std::int32_t width;
  std::int64_t paper_racks;
  std::int32_t pickers;
  std::int32_t robots;
};

// Names the case by preset; the default byte dump would print the `name`
// pointer, so the test's name would change from run to run.
void PrintTo(const PresetExpectation& e, std::ostream* os) { *os << e.name; }

class PaperPresetTest : public ::testing::TestWithParam<PresetExpectation> {};

TEST_P(PaperPresetTest, MatchesTableTwoWithinTolerance) {
  const PresetExpectation& e = GetParam();
  Warehouse w = GenerateWarehouse(PresetByName(e.name));
  EXPECT_EQ(w.matrix.height(), e.height);
  EXPECT_EQ(w.matrix.width(), e.width);
  EXPECT_EQ(static_cast<std::int32_t>(w.pickers.size()), e.pickers);
  EXPECT_EQ(static_cast<std::int32_t>(w.robot_homes.size()), e.robots);
  // Rack counts within 15% of the paper's (exact positions proprietary).
  const double ratio = static_cast<double>(w.matrix.RackCount()) /
                       static_cast<double>(e.paper_racks);
  EXPECT_GT(ratio, 0.85) << "racks=" << w.matrix.RackCount();
  EXPECT_LT(ratio, 1.15) << "racks=" << w.matrix.RackCount();
  EXPECT_TRUE(core::SpatialPathFinder::AislesConnected(w.matrix));
}

INSTANTIATE_TEST_SUITE_P(
    TableTwo, PaperPresetTest,
    ::testing::Values(PresetExpectation{"W-1", 233, 104, 4896, 68, 408},
                      PresetExpectation{"W-2", 240, 206, 9792, 136, 952},
                      PresetExpectation{"W-3", 292, 278, 15088, 184, 2208}));

// Parameter sweep: the generator must stay well-formed across geometries.
struct SweepParam {
  std::int32_t height, width, l, aisle, cross, margin;
};

class LayoutSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(LayoutSweepTest, GeneratedLayoutWellFormed) {
  const SweepParam& p = GetParam();
  LayoutConfig c;
  c.height = p.height;
  c.width = p.width;
  c.cluster_length = p.l;
  c.aisle_width = p.aisle;
  c.cross_aisle_height = p.cross;
  c.margin = p.margin;
  c.num_pickers = 4;
  c.num_robots = 8;
  Warehouse w = GenerateWarehouse(c);
  EXPECT_TRUE(core::SpatialPathFinder::AislesConnected(w.matrix));
  EXPECT_EQ(static_cast<std::int64_t>(w.racks.size()),
            w.matrix.RackCount());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LayoutSweepTest,
    ::testing::Values(SweepParam{30, 20, 3, 1, 1, 2},
                      SweepParam{48, 36, 6, 2, 3, 3},
                      SweepParam{64, 64, 8, 1, 2, 2},
                      SweepParam{80, 40, 4, 3, 4, 4},
                      SweepParam{25, 25, 5, 2, 2, 2},
                      SweepParam{100, 30, 10, 2, 5, 5}));

using LayoutGeneratorDeathTest = ::testing::Test;

TEST(LayoutGeneratorDeathTest, RejectsOversizedMargin) {
  LayoutConfig c = PresetTiny();
  c.margin = 20;  // 2*20 >= min(height, width)
  EXPECT_DEATH(GenerateWarehouse(c), "margin");
}

TEST(LayoutGeneratorDeathTest, RejectsTooManyRobots) {
  LayoutConfig c = PresetTiny();
  c.num_robots = 100000;
  EXPECT_DEATH(GenerateWarehouse(c), "not enough aisle cells");
}

}  // namespace
}  // namespace carp::layout
