#include "srp/strip_graph.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <limits>

#include "common/logging.h"
#include "common/memory_accounting.h"

namespace carp::srp {

const StripContact& NearestContactSlow(std::span<const StripContact> contacts,
                                       std::int64_t pos) {
  CARP_CHECK(!contacts.empty());
  auto it = std::lower_bound(
      contacts.begin(), contacts.end(), pos,
      [](const StripContact& c, std::int64_t p) { return c.pos_u < p; });
  if (it == contacts.end()) return contacts.back();
  if (it == contacts.begin()) return contacts.front();
  auto prev = std::prev(it);
  return (pos - prev->pos_u) <= (it->pos_u - pos) ? *prev : *it;
}

const StripContact& ContactNearestToTarget(
    std::span<const StripContact> contacts, std::int64_t pos_v) {
  CARP_CHECK(!contacts.empty());
  const StripContact* best = &contacts.front();
  std::int64_t best_dist = std::abs(best->pos_v - pos_v);
  for (const StripContact& c : contacts) {
    const std::int64_t d = std::abs(c.pos_v - pos_v);
    if (d < best_dist) {
      best = &c;
      best_dist = d;
    }
  }
  return *best;
}

StripGraph::StripGraph(const core::WarehouseMatrix& matrix)
    : matrix_(matrix) {
  const std::int32_t h = matrix.height();
  const std::int32_t w = matrix.width();
  cell_strip_.assign(static_cast<std::size_t>(matrix.CellCount()),
                     kInvalidStrip);

  auto assign = [&](GridCoord g, StripId id) {
    cell_strip_[static_cast<std::size_t>(matrix.Index(g))] = id;
  };

  // Phase 1 (Alg. 1 lines 4-8): full all-aisle rows become latitudinal
  // aisle strips.
  for (std::int32_t i = 0; i < h; ++i) {
    bool all_aisle = true;
    for (std::int32_t j = 0; j < w && all_aisle; ++j) {
      all_aisle = !matrix.IsRack({i, j});
    }
    if (!all_aisle) continue;
    Strip s;
    s.id = static_cast<StripId>(strips_.size());
    s.alpha = {i, 0};
    s.beta = {i, w - 1};
    s.dir = Direction::kLatitudinal;
    s.type = CellKind::kAisle;
    for (std::int32_t j = 0; j < w; ++j) assign({i, j}, s.id);
    strips_.push_back(s);
  }

  // Phase 2 (lines 10-19): remaining cells aggregate into maximal
  // longitudinal runs of equal value.
  for (std::int32_t j = 0; j < w; ++j) {
    std::int32_t i = 0;
    while (i < h) {
      if (cell_strip_[static_cast<std::size_t>(matrix.Index({i, j}))] !=
          kInvalidStrip) {
        ++i;
        continue;
      }
      const bool rack = matrix.IsRack({i, j});
      std::int32_t k = i;
      while (k + 1 < h && matrix.IsRack({k + 1, j}) == rack &&
             cell_strip_[static_cast<std::size_t>(
                 matrix.Index({k + 1, j}))] == kInvalidStrip) {
        ++k;
      }
      Strip s;
      s.id = static_cast<StripId>(strips_.size());
      s.alpha = {i, j};
      s.beta = {k, j};
      s.dir = Direction::kLongitudinal;
      s.type = rack ? CellKind::kRack : CellKind::kAisle;
      for (std::int32_t r = i; r <= k; ++r) assign({r, j}, s.id);
      strips_.push_back(s);
      i = k + 1;
    }
  }

  strips_.shrink_to_fit();

  // Phase 3 (lines 21-24): edges between strips with adjacent cells,
  // excluding rack-rack pairs (robots cannot cross racks). Each touching
  // cell pair yields one directed contact per direction; a counting pass
  // buckets them by source strip, and sorting a bucket by (target, pos_u)
  // groups it into that strip's edges.
  struct Directed {
    StripId to;
    StripContact contact;
  };
  auto for_each_contact = [&](auto&& emit) {
    auto record = [&](GridCoord a, GridCoord b) {
      const StripId u = cell_strip_[static_cast<std::size_t>(matrix.Index(a))];
      const StripId v = cell_strip_[static_cast<std::size_t>(matrix.Index(b))];
      if (u == v) return;
      const Strip& su = strip(u);
      const Strip& sv = strip(v);
      if (su.type == CellKind::kRack && sv.type == CellKind::kRack) return;
      const auto pu = static_cast<std::int32_t>(su.PositionOf(a));
      const auto pv = static_cast<std::int32_t>(sv.PositionOf(b));
      emit(u, Directed{v, StripContact{pu, pv}});
      emit(v, Directed{u, StripContact{pv, pu}});
    };
    for (std::int32_t i = 0; i < h; ++i) {
      for (std::int32_t j = 0; j < w; ++j) {
        if (i + 1 < h) record({i, j}, {i + 1, j});
        if (j + 1 < w) record({i, j}, {i, j + 1});
      }
    }
  };
  const std::size_t n = strips_.size();
  std::vector<std::int32_t> bucket(n + 1, 0);
  for_each_contact([&](StripId u, const Directed&) {
    ++bucket[static_cast<std::size_t>(u) + 1];
  });
  for (std::size_t s = 0; s < n; ++s) bucket[s + 1] += bucket[s];
  std::vector<Directed> directed(static_cast<std::size_t>(bucket[n]));
  {
    std::vector<std::int32_t> fill(bucket.begin(), bucket.end() - 1);
    for_each_contact([&](StripId u, const Directed& d) {
      directed[static_cast<std::size_t>(
          fill[static_cast<std::size_t>(u)]++)] = d;
    });
  }
  std::size_t edges = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const auto first = directed.begin() + bucket[s];
    const auto last = directed.begin() + bucket[s + 1];
    std::sort(first, last, [](const Directed& a, const Directed& b) {
      return a.to != b.to ? a.to < b.to : a.contact.pos_u < b.contact.pos_u;
    });
    for (auto it = first; it != last; ++it) {
      edges += (it == first || it->to != std::prev(it)->to) ? 1 : 0;
    }
  }

  edge_offsets_.resize(n + 1);
  tail_begin_.resize(n);
  edges_.reserve(edges + 1);
  contacts_.resize(directed.size());
  for (std::size_t s = 0; s < n; ++s) {
    edge_offsets_[s] = static_cast<std::int32_t>(edges_.size());
    for (auto k = static_cast<std::size_t>(bucket[s]);
         k < static_cast<std::size_t>(bucket[s + 1]); ++k) {
      if (k == static_cast<std::size_t>(bucket[s]) ||
          directed[k].to != directed[k - 1].to) {
        edges_.push_back(
            StripEdge{directed[k].to, static_cast<std::int32_t>(k)});
      }
      contacts_[k] = directed[k].contact;
    }
    // The tail run: walk back over single-contact edges while pos_u does
    // not increase.
    std::size_t tail = edges_.size();
    std::int32_t next_first = bucket[s + 1];
    std::int32_t next_pos = std::numeric_limits<std::int32_t>::max();
    while (tail > static_cast<std::size_t>(edge_offsets_[s])) {
      const StripEdge& e = edges_[tail - 1];
      const std::int32_t pos_u =
          contacts_[static_cast<std::size_t>(e.first_contact)].pos_u;
      if (next_first - e.first_contact != 1 || pos_u > next_pos) break;
      next_first = e.first_contact;
      next_pos = pos_u;
      --tail;
    }
    tail_begin_[s] = static_cast<std::int32_t>(tail);
  }
  edge_offsets_[n] = static_cast<std::int32_t>(edges_.size());
  edges_.push_back(
      StripEdge{kInvalidStrip, static_cast<std::int32_t>(contacts_.size())});
  CARP_CHECK(edges % 2 == 0);
  edge_count_ = static_cast<std::int64_t>(edges / 2);
}

StripId StripGraph::StripOf(GridCoord g) const {
  CARP_CHECK(matrix_.InBounds(g)) << "cell out of bounds " << g;
  return cell_strip_[static_cast<std::size_t>(matrix_.Index(g))];
}

std::size_t StripGraph::RetainedBytes() const {
  return mem::BytesOf(strips_) + mem::BytesOf(cell_strip_) +
         mem::BytesOf(edge_offsets_) + mem::BytesOf(tail_begin_) +
         mem::BytesOf(edges_) + mem::BytesOf(contacts_);
}

}  // namespace carp::srp
