#include "srp/strip_graph.h"

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "layout/layout_generator.h"
#include "layout/presets.h"

namespace carp::srp {
namespace {

using core::WarehouseMatrix;

// The toy layout of the paper's Fig. 3 flavour: two 2x2 rack clusters
// between full-width aisles.
WarehouseMatrix ToyMatrix() {
  return WarehouseMatrix::FromAscii(
      ".......\n"
      ".##.##.\n"
      ".##.##.\n"
      ".......\n");
}

TEST(StripGraphTest, FullAisleRowsBecomeLatitudinalStrips) {
  WarehouseMatrix m = ToyMatrix();
  StripGraph g(m);
  int latitudinal = 0;
  for (const Strip& s : g.strips()) {
    if (s.dir == Direction::kLatitudinal) {
      ++latitudinal;
      EXPECT_EQ(s.type, CellKind::kAisle);
      EXPECT_EQ(s.length(), m.width());
    }
  }
  EXPECT_EQ(latitudinal, 2);  // rows 0 and 3
}

TEST(StripGraphTest, RemainingCellsAggregateLongitudinally) {
  StripGraph g(ToyMatrix());
  // Rows 1-2: columns 0,3,6 are aisle strips of length 2; columns 1,2,4,5
  // are rack strips of length 2. Plus 2 latitudinal = 2 + 7 strips.
  EXPECT_EQ(g.vertex_count(), 9);
  int rack_strips = 0;
  for (const Strip& s : g.strips()) {
    if (s.type == CellKind::kRack) {
      ++rack_strips;
      EXPECT_EQ(s.dir, Direction::kLongitudinal);
      EXPECT_EQ(s.length(), 2);
    }
  }
  EXPECT_EQ(rack_strips, 4);
}

TEST(StripGraphTest, EveryCellBelongsToExactlyOneStrip) {
  WarehouseMatrix m = ToyMatrix();
  StripGraph g(m);
  std::vector<std::int64_t> counted(static_cast<std::size_t>(
      g.vertex_count()));
  for (std::int32_t i = 0; i < m.height(); ++i) {
    for (std::int32_t j = 0; j < m.width(); ++j) {
      const StripId sid = g.StripOf({i, j});
      ASSERT_GE(sid, 0);
      ASSERT_LT(sid, g.vertex_count());
      EXPECT_TRUE(g.strip(sid).Contains({i, j}));
      ++counted[static_cast<std::size_t>(sid)];
    }
  }
  std::int64_t total = 0;
  for (std::size_t s = 0; s < counted.size(); ++s) {
    EXPECT_EQ(counted[s], g.strip(static_cast<StripId>(s)).length());
    total += counted[s];
  }
  EXPECT_EQ(total, m.CellCount());
}

TEST(StripGraphTest, NoRackRackEdges) {
  StripGraph g(ToyMatrix());
  for (const Strip& s : g.strips()) {
    for (const StripEdge& e : g.EdgesOf(s.id)) {
      const bool both_rack = s.type == CellKind::kRack &&
                             g.strip(e.to).type == CellKind::kRack;
      EXPECT_FALSE(both_rack)
          << "rack-rack edge " << s.id << "->" << e.to;
    }
  }
}

TEST(StripGraphTest, EdgesAreSymmetricWithMirroredContacts) {
  StripGraph g(ToyMatrix());
  for (const Strip& s : g.strips()) {
    for (const StripEdge& e : g.EdgesOf(s.id)) {
      bool found_reverse = false;
      for (const StripEdge& r : g.EdgesOf(e.to)) {
        if (r.to == s.id) {
          found_reverse = true;
          EXPECT_EQ(g.ContactsOf(r).size(), g.ContactsOf(e).size());
        }
      }
      EXPECT_TRUE(found_reverse);
    }
  }
}

TEST(StripGraphTest, ContactsAreAdjacentCells) {
  StripGraph g(ToyMatrix());
  for (const Strip& s : g.strips()) {
    for (const StripEdge& e : g.EdgesOf(s.id)) {
      for (const StripContact& c : g.ContactsOf(e)) {
        const GridCoord a = s.CellAt(c.pos_u);
        const GridCoord b = g.strip(e.to).CellAt(c.pos_v);
        EXPECT_EQ(ManhattanDistance(a, b), 1);
      }
    }
  }
}

TEST(StripGraphTest, NearestContactPicksClosest) {
  const std::vector<StripContact> contacts = {{0, 5}, {4, 9}, {9, 14}};
  EXPECT_EQ(NearestContact(contacts, 0).pos_u, 0);
  EXPECT_EQ(NearestContact(contacts, 1).pos_u, 0);
  EXPECT_EQ(NearestContact(contacts, 3).pos_u, 4);
  EXPECT_EQ(NearestContact(contacts, 7).pos_u, 9);
  EXPECT_EQ(NearestContact(contacts, 100).pos_u, 9);
}

TEST(StripGraphTest, ContactNearestToTargetPicksByTargetSide) {
  const std::vector<StripContact> contacts = {{0, 5}, {4, 9}, {9, 14}};
  EXPECT_EQ(ContactNearestToTarget(contacts, 5).pos_v, 5);
  EXPECT_EQ(ContactNearestToTarget(contacts, 8).pos_v, 9);
  EXPECT_EQ(ContactNearestToTarget(contacts, 100).pos_v, 14);
  EXPECT_EQ(ContactNearestToTarget(contacts, 0).pos_v, 5);
}

TEST(StripGraphTest, SideBySideAisleStripsShareFullContact) {
  // Two adjacent aisle columns: contacts at every position.
  WarehouseMatrix m = WarehouseMatrix::FromAscii(
      "#..#\n"
      "#..#\n"
      "#..#\n");
  StripGraph g(m);
  const StripId left = g.StripOf({0, 1});
  const StripId right = g.StripOf({0, 2});
  ASSERT_NE(left, right);
  bool found = false;
  for (const StripEdge& e : g.EdgesOf(left)) {
    if (e.to == right) {
      found = true;
      EXPECT_EQ(g.ContactsOf(e).size(), 3u);  // one per row
    }
  }
  EXPECT_TRUE(found);
}

TEST(StripGraphTest, PositionInStripConsistent) {
  WarehouseMatrix m = ToyMatrix();
  StripGraph g(m);
  for (std::int32_t i = 0; i < m.height(); ++i) {
    for (std::int32_t j = 0; j < m.width(); ++j) {
      const StripId sid = g.StripOf({i, j});
      const std::int64_t pos = g.PositionInStrip({i, j});
      EXPECT_EQ(g.strip(sid).CellAt(pos), (GridCoord{i, j}));
    }
  }
}

TEST(StripGraphTest, PaperReductionRatioOnPresetW1) {
  // Table II: strips reduce vertices to ~16% and edges to ~23% of the
  // grid representation. Our synthetic W-1 should land in the same
  // ballpark (below 25% for both).
  layout::Warehouse w =
      layout::GenerateWarehouse(layout::PresetByName("W-1"));
  StripGraph g(w.matrix);
  const double vertex_ratio =
      static_cast<double>(g.vertex_count()) /
      static_cast<double>(w.matrix.CellCount());
  const double edge_ratio = static_cast<double>(g.edge_count()) /
                            (2.0 * static_cast<double>(w.matrix.CellCount()));
  EXPECT_LT(vertex_ratio, 0.25);
  EXPECT_GT(vertex_ratio, 0.02);
  EXPECT_LT(edge_ratio, 0.35);
  EXPECT_GT(edge_ratio, 0.02);
}

TEST(StripGraphTest, AllAisleMatrixIsAllLatitudinal) {
  WarehouseMatrix m(4, 5);
  StripGraph g(m);
  EXPECT_EQ(g.vertex_count(), 4);
  for (const Strip& s : g.strips()) {
    EXPECT_EQ(s.dir, Direction::kLatitudinal);
  }
  EXPECT_EQ(g.edge_count(), 3);
}

TEST(StripGraphTest, RetainedBytesCountsEveryArray) {
  // Toy graph: 9 strips over 28 cells. Each latitudinal aisle touches all
  // 7 column strips once (14 edges); rows 1-2 add the aisle-rack pairs
  // (0,1), (2,3), (3,4), (5,6), two contacts each (4 edges).
  WarehouseMatrix m = ToyMatrix();
  StripGraph g(m);
  ASSERT_EQ(g.vertex_count(), 9);
  ASSERT_EQ(g.edge_count(), 18);
  std::size_t contacts = 0;
  for (const Strip& s : g.strips()) {
    for (const StripEdge& e : g.EdgesOf(s.id)) {
      contacts += g.ContactsOf(e).size();
    }
  }
  ASSERT_EQ(contacts, 44u);  // (14 * 1 + 4 * 2) per direction
  static_assert(sizeof(StripEdge) == 8);
  static_assert(sizeof(StripContact) == 8);
  const std::size_t strips = 9 * sizeof(Strip);
  const std::size_t cell_strip = 28 * sizeof(StripId);
  const std::size_t edge_offsets = (9 + 1) * sizeof(std::int32_t);
  const std::size_t tail_begin = 9 * sizeof(std::int32_t);
  const std::size_t edges = (2 * 18 + 1) * sizeof(StripEdge);  // + sentinel
  const std::size_t contact_bytes = 44 * sizeof(StripContact);
  EXPECT_EQ(g.RetainedBytes(), strips + cell_strip + edge_offsets +
                                   tail_begin + edges + contact_bytes);
}

// Algorithm 1 as first written: strips as in the graph, then every
// directed contact appended to a std::map keyed by (source, target) and
// each key's contacts sorted by pos_u. The CSR build must reproduce it.
struct ReferenceGraph {
  std::vector<Strip> strips;
  std::vector<StripId> cell_strip;
  // Per source strip: (target, contacts) in map order.
  std::vector<std::vector<std::pair<StripId, std::vector<StripContact>>>>
      adjacency;
  std::int64_t edge_count = 0;
};

ReferenceGraph BuildReference(const WarehouseMatrix& matrix) {
  ReferenceGraph r;
  const std::int32_t h = matrix.height();
  const std::int32_t w = matrix.width();
  r.cell_strip.assign(static_cast<std::size_t>(matrix.CellCount()),
                      kInvalidStrip);
  auto at = [&](GridCoord g) -> StripId& {
    return r.cell_strip[static_cast<std::size_t>(matrix.Index(g))];
  };
  for (std::int32_t i = 0; i < h; ++i) {
    bool all_aisle = true;
    for (std::int32_t j = 0; j < w; ++j) all_aisle &= !matrix.IsRack({i, j});
    if (!all_aisle) continue;
    Strip s;
    s.id = static_cast<StripId>(r.strips.size());
    s.alpha = {i, 0};
    s.beta = {i, w - 1};
    s.dir = Direction::kLatitudinal;
    s.type = CellKind::kAisle;
    for (std::int32_t j = 0; j < w; ++j) at({i, j}) = s.id;
    r.strips.push_back(s);
  }
  for (std::int32_t j = 0; j < w; ++j) {
    for (std::int32_t i = 0; i < h;) {
      if (at({i, j}) != kInvalidStrip) {
        ++i;
        continue;
      }
      const bool rack = matrix.IsRack({i, j});
      std::int32_t k = i;
      while (k + 1 < h && matrix.IsRack({k + 1, j}) == rack &&
             at({k + 1, j}) == kInvalidStrip) {
        ++k;
      }
      Strip s;
      s.id = static_cast<StripId>(r.strips.size());
      s.alpha = {i, j};
      s.beta = {k, j};
      s.dir = Direction::kLongitudinal;
      s.type = rack ? CellKind::kRack : CellKind::kAisle;
      for (std::int32_t row = i; row <= k; ++row) at({row, j}) = s.id;
      r.strips.push_back(s);
      i = k + 1;
    }
  }
  std::map<std::pair<StripId, StripId>, std::vector<StripContact>> contacts;
  auto record = [&](GridCoord a, GridCoord b) {
    const StripId u = at(a);
    const StripId v = at(b);
    const Strip& su = r.strips[static_cast<std::size_t>(u)];
    const Strip& sv = r.strips[static_cast<std::size_t>(v)];
    if (u == v) return;
    if (su.type == CellKind::kRack && sv.type == CellKind::kRack) return;
    const auto pu = static_cast<std::int32_t>(su.PositionOf(a));
    const auto pv = static_cast<std::int32_t>(sv.PositionOf(b));
    contacts[{u, v}].push_back({pu, pv});
    contacts[{v, u}].push_back({pv, pu});
  };
  for (std::int32_t i = 0; i < h; ++i) {
    for (std::int32_t j = 0; j < w; ++j) {
      if (i + 1 < h) record({i, j}, {i + 1, j});
      if (j + 1 < w) record({i, j}, {i, j + 1});
    }
  }
  r.adjacency.resize(r.strips.size());
  for (auto& [key, pairs] : contacts) {
    std::sort(pairs.begin(), pairs.end(),
              [](const StripContact& a, const StripContact& b) {
                return a.pos_u < b.pos_u;
              });
    r.adjacency[static_cast<std::size_t>(key.first)].emplace_back(
        key.second, std::move(pairs));
  }
  r.edge_count = static_cast<std::int64_t>(contacts.size() / 2);
  return r;
}

class StripGraphPresetTest : public ::testing::TestWithParam<std::string> {
 protected:
  static const WarehouseMatrix& Matrix(const std::string& name) {
    static auto* cache = new std::map<std::string, layout::Warehouse>();
    auto it = cache->find(name);
    if (it == cache->end()) {
      it = cache
               ->emplace(name, layout::GenerateWarehouse(
                                   layout::PresetByName(name)))
               .first;
    }
    return it->second.matrix;
  }
};

TEST_P(StripGraphPresetTest, MatchesReferenceBuilder) {
  const WarehouseMatrix& m = Matrix(GetParam());
  const StripGraph g(m);
  const ReferenceGraph r = BuildReference(m);
  ASSERT_EQ(g.vertex_count(), static_cast<std::int64_t>(r.strips.size()));
  EXPECT_EQ(g.edge_count(), r.edge_count);
  for (const Strip& want : r.strips) {
    const Strip& got = g.strip(want.id);
    ASSERT_EQ(got.id, want.id);
    ASSERT_EQ(got.alpha, want.alpha);
    ASSERT_EQ(got.beta, want.beta);
    ASSERT_EQ(got.dir, want.dir);
    ASSERT_EQ(got.type, want.type);
  }
  for (std::int32_t i = 0; i < m.height(); ++i) {
    for (std::int32_t j = 0; j < m.width(); ++j) {
      ASSERT_EQ(g.StripOf({i, j}),
                r.cell_strip[static_cast<std::size_t>(m.Index({i, j}))]);
    }
  }
  for (const Strip& s : g.strips()) {
    const auto& want = r.adjacency[static_cast<std::size_t>(s.id)];
    const std::span<const StripEdge> got = g.EdgesOf(s.id);
    ASSERT_EQ(got.size(), want.size()) << "strip " << s.id;
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k].to, want[k].first) << "strip " << s.id;
      const std::span<const StripContact> contacts = g.ContactsOf(got[k]);
      ASSERT_EQ(contacts.size(), want[k].second.size());
      for (std::size_t c = 0; c < contacts.size(); ++c) {
        ASSERT_EQ(contacts[c].pos_u, want[k].second[c].pos_u);
        ASSERT_EQ(contacts[c].pos_v, want[k].second[c].pos_v);
      }
    }
  }
}

TEST_P(StripGraphPresetTest, TailRunIsSortedSingleContactSuffix) {
  const StripGraph g(Matrix(GetParam()));
  for (const Strip& s : g.strips()) {
    const std::span<const StripEdge> edges = g.EdgesOf(s.id);
    const std::span<const StripEdge> run = g.TailRunOf(s.id);
    ASSERT_LE(run.size(), edges.size());
    ASSERT_EQ(run.data() + run.size(), edges.data() + edges.size());
    for (std::size_t k = 0; k < run.size(); ++k) {
      ASSERT_EQ(g.ContactsOf(run[k]).size(), 1u);
      if (k > 0) {
        ASSERT_LE(g.ContactsOf(run[k - 1]).front().pos_u,
                  g.ContactsOf(run[k]).front().pos_u);
      }
    }
    // Maximal: the edge before the run cannot extend it.
    if (run.size() < edges.size()) {
      const StripEdge& before = edges[edges.size() - run.size() - 1];
      const bool extends =
          g.ContactsOf(before).size() == 1 &&
          (run.empty() || g.ContactsOf(before).front().pos_u <=
                              g.ContactsOf(run.front()).front().pos_u);
      EXPECT_FALSE(extends) << "strip " << s.id;
    }
    // The cross aisles, where the window pays, have every single-contact
    // edge inside the run.
    if (s.dir == Direction::kLatitudinal) {
      for (const StripEdge& e : edges.first(edges.size() - run.size())) {
        EXPECT_GT(g.ContactsOf(e).size(), 1u) << "strip " << s.id;
      }
    }
  }
}

// The windowed scan drops only edges the exact geodesic-tube test (the
// one SrpPlanner applies) rejects, and keeps the survivors' order.
TEST_P(StripGraphPresetTest, TubeWindowKeepsExactlyTheDetourSurvivors) {
  const WarehouseMatrix& m = Matrix(GetParam());
  const StripGraph g(m);
  Rng rng(20);
  const std::int64_t slacks[] = {0, 1, 5, 6, -1};
  auto random_cell = [&]() {
    return GridCoord{static_cast<std::int32_t>(rng.UniformU32(
                         static_cast<std::uint32_t>(m.height()))),
                     static_cast<std::int32_t>(rng.UniformU32(
                         static_cast<std::uint32_t>(m.width())))};
  };
  std::int64_t checked = 0;
  for (const Strip& su : g.strips()) {
    if (su.type != CellKind::kAisle) continue;
    const int trials = su.dir == Direction::kLatitudinal ? 64 : 3;
    for (int trial = 0; trial < trials; ++trial) {
      const std::int64_t entry = rng.UniformInt(0, su.length() - 1);
      // Half the destinations lie on the strip's own line, so the
      // projection q often falls inside the strip.
      GridCoord dest = random_cell();
      if (trial % 2 == 0) {
        if (su.dir == Direction::kLatitudinal) {
          dest.row = su.alpha.row;
        } else {
          dest.col = su.alpha.col;
        }
      }
      const StripId vd = g.StripOf(dest);
      const std::int64_t lb_u = ManhattanDistance(su.CellAt(entry), dest);
      for (const std::int64_t slack : slacks) {
        auto passes = [&](const StripEdge& e) {
          if (slack < 0) return true;
          const std::span<const StripContact> contacts = g.ContactsOf(e);
          const StripContact& c =
              e.to == vd ? ContactNearestToTarget(
                               contacts, g.strip(vd).PositionOf(dest))
                         : NearestContact(contacts, entry);
          const std::int64_t lb_v =
              ManhattanDistance(g.strip(e.to).CellAt(c.pos_v), dest);
          return std::abs(entry - c.pos_u) + 1 + lb_v - lb_u <= slack;
        };
        std::vector<const StripEdge*> exact;
        for (const StripEdge& e : g.EdgesOf(su.id)) {
          if (passes(e)) exact.push_back(&e);
        }
        std::vector<const StripEdge*> windowed;
        g.ForEachEdgeInTube(su.id, entry, dest, slack,
                            [&](const StripEdge& e) {
                              if (passes(e)) windowed.push_back(&e);
                            });
        ASSERT_EQ(windowed, exact)
            << "strip " << su.id << " entry " << entry << " dest " << dest
            << " slack " << slack;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

INSTANTIATE_TEST_SUITE_P(Presets, StripGraphPresetTest,
                         ::testing::Values("W-1", "W-2", "W-3"),
                         [](const auto& info) {
                           std::string name = info.param;
                           name.erase(name.find('-'), 1);
                           return name;
                         });

}  // namespace
}  // namespace carp::srp
