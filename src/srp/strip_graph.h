#ifndef CARP_SRP_STRIP_GRAPH_H_
#define CARP_SRP_STRIP_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/warehouse.h"
#include "srp/strip.h"

namespace carp::srp {

/// One contact between two adjacent strips: the grid-number pair of
/// touching cells. Crossing an edge means stepping from position `pos_u`
/// in the source strip to position `pos_v` in the target strip (1 timestep).
struct StripContact {
  std::int32_t pos_u = 0;
  std::int32_t pos_v = 0;
};

/// A directed half-edge of the strip graph. The paper's edges are
/// undirected with dynamic weights (computed by intra-strip planning at
/// query time, Sec. VI); we store each direction once. Its contacts are
/// the flat range StripGraph::ContactsOf(edge), sorted by pos_u so the
/// greedy transit rule ("the adjacent pair containing the source grid")
/// is a binary search.
struct StripEdge {
  StripId to = kInvalidStrip;
  std::int32_t first_contact = 0;  // index into the graph's contact array
};

const StripContact& NearestContactSlow(std::span<const StripContact> contacts,
                                       std::int64_t pos);

/// The contact whose pos_u is closest to `pos` (the greedy transit of
/// Sec. VI; exact when `pos` itself touches the target strip). `contacts`
/// is non-empty and sorted by pos_u.
inline const StripContact& NearestContact(
    std::span<const StripContact> contacts, std::int64_t pos) {
  // Perpendicular edges have exactly one contact (Fig. 10b) — the common
  // case on the relaxation hot path.
  if (contacts.size() == 1) return contacts.front();
  return NearestContactSlow(contacts, pos);
}

/// The contact whose *target-side* position is closest to `pos_v`. Used
/// when entering the destination strip: hopping in next to the goal
/// minimises exposure to in-strip traffic (mitigates the greedy-transit
/// sub-optimality of Fig. 14). Linear in the contact count.
const StripContact& ContactNearestToTarget(
    std::span<const StripContact> contacts, std::int64_t pos_v);

/// The strip graph S = <V, E> (Def. 5), built from a warehouse matrix by
/// Algorithm 1:
///   1. every all-aisle full row becomes one latitudinal aisle strip;
///   2. remaining cells aggregate into maximal longitudinal runs of equal
///      value (aisle or rack strips);
///   3. edges connect strips with adjacent cells, except rack-rack pairs.
///
/// Edges are stored in CSR form: strip s owns edges_[edge_offsets_[s],
/// edge_offsets_[s+1]) in ascending target id, and edge i owns contacts_
/// [edges_[i].first_contact, edges_[i+1].first_contact) (a sentinel edge
/// closes the array). Each strip's *tail run* — the longest suffix of its
/// edges that have one contact each, with non-decreasing pos_u — starts
/// at tail_begin_[s]; ForEachEdgeInTube binary-searches it.
class StripGraph {
 public:
  /// Builds the graph; O(HW) time plus a sort of each strip's contacts.
  explicit StripGraph(const core::WarehouseMatrix& matrix);

  const std::vector<Strip>& strips() const { return strips_; }
  const Strip& strip(StripId id) const {
    return strips_[static_cast<std::size_t>(id)];
  }

  std::int64_t vertex_count() const {
    return static_cast<std::int64_t>(strips_.size());
  }

  /// Number of undirected edges.
  std::int64_t edge_count() const { return edge_count_; }

  /// Strip containing cell `g` (every cell belongs to exactly one strip).
  StripId StripOf(GridCoord g) const;

  /// Outgoing half-edges of strip `id`, in ascending target id.
  std::span<const StripEdge> EdgesOf(StripId id) const {
    const std::size_t s = static_cast<std::size_t>(id);
    return {edges_.data() + edge_offsets_[s],
            edges_.data() + edge_offsets_[s + 1]};
  }

  /// Contacts of `edge`, sorted by pos_u; `edge` must come from EdgesOf.
  std::span<const StripContact> ContactsOf(const StripEdge& edge) const {
    const StripEdge& next = (&edge)[1];  // the sentinel closes edges_
    return {contacts_.data() + edge.first_contact,
            contacts_.data() + next.first_contact};
  }

  /// The tail run of strip `id`: the longest suffix of EdgesOf(id) whose
  /// edges have one contact each, with non-decreasing pos_u.
  std::span<const StripEdge> TailRunOf(StripId id) const {
    const std::size_t s = static_cast<std::size_t>(id);
    return {edges_.data() + tail_begin_[s],
            edges_.data() + edge_offsets_[s + 1]};
  }

  /// Calls `visit(edge)`, in EdgesOf order, for every out-edge of `id`
  /// that can pass the geodesic-tube test of a strip entered at position
  /// `entry` on the way to `destination`:
  ///   detour = |entry - p| + 1 + M(v-side cell) - M(entry cell) <= slack
  /// (M = Manhattan distance to `destination`, p the contact's pos_u).
  /// The v-side cell is adjacent to p's cell, so detour >= 2 * dist(p,
  /// [min(entry, q), max(entry, q)]) with q the destination projected on
  /// the strip's axis; a tail-run edge outside that interval widened by
  /// floor(slack / 2) fails the test and is skipped. Edges before the
  /// tail run are always visited, and `detour_slack < 0` visits every
  /// edge. The caller still applies the exact test to what it is given.
  template <typename Visit>
  void ForEachEdgeInTube(StripId id, std::int64_t entry,
                         GridCoord destination, std::int64_t detour_slack,
                         Visit&& visit) const {
    const std::span<const StripEdge> edges = EdgesOf(id);
    std::span<const StripEdge> run = TailRunOf(id);
    for (const StripEdge& e : edges.first(edges.size() - run.size())) {
      visit(e);
    }
    if (detour_slack >= 0) {
      const Strip& st = strip(id);
      const std::int64_t q = st.dir == Direction::kLatitudinal
                                 ? destination.col - st.alpha.col
                                 : destination.row - st.alpha.row;
      const std::int64_t lo = std::min(entry, q) - detour_slack / 2;
      const std::int64_t hi = std::max(entry, q) + detour_slack / 2;
      auto pos_u = [&](const StripEdge& e) {
        return contacts_[static_cast<std::size_t>(e.first_contact)].pos_u;
      };
      const auto first = std::partition_point(
          run.begin(), run.end(),
          [&](const StripEdge& e) { return pos_u(e) < lo; });
      const auto last = std::partition_point(
          first, run.end(), [&](const StripEdge& e) { return pos_u(e) <= hi; });
      run = {first, last};
    }
    for (const StripEdge& e : run) visit(e);
  }

  /// Grid number of `g` within its containing strip.
  std::int64_t PositionInStrip(GridCoord g) const {
    return strip(StripOf(g)).PositionOf(g);
  }

  /// Bytes retained by the graph (every array it owns), for MC
  /// accounting.
  std::size_t RetainedBytes() const;

 private:
  const core::WarehouseMatrix& matrix_;
  std::vector<Strip> strips_;
  std::vector<StripId> cell_strip_;          // per matrix cell
  std::vector<std::int32_t> edge_offsets_;   // per strip, plus one
  std::vector<std::int32_t> tail_begin_;     // per strip: its tail run
  std::vector<StripEdge> edges_;             // plus the sentinel
  std::vector<StripContact> contacts_;
  std::int64_t edge_count_ = 0;
};

}  // namespace carp::srp

#endif  // CARP_SRP_STRIP_GRAPH_H_
