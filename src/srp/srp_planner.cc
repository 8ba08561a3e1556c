#include "srp/srp_planner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "core/spacetime_oracle.h"
#include "srp/segment_index.h"

namespace carp::srp {

namespace {

/// Space-time oracle over SRP's segment stores + boundary crossings, for
/// the A* fallback. Vertex queries are point probes; same-strip moves are
/// diagonal probes (which detect both vertex and swap conflicts exactly);
/// cross-strip swaps come from the crossing registry.
class SegmentOracle final : public core::SpaceTimeOracle {
 public:
  SegmentOracle(const StripGraph& graph,
                const std::vector<std::unique_ptr<SegmentStore>>& stores,
                const BoundaryCrossings& crossings)
      : graph_(graph), stores_(stores), crossings_(crossings) {}

  bool IsFree(GridCoord cell, TimeStep t) const override {
    const StripId sid = graph_.StripOf(cell);
    const SegmentStore* store = stores_[static_cast<std::size_t>(sid)].get();
    if (store == nullptr) return true;  // rack strip: no segments live there
    return !store->OccupiedAt(graph_.strip(sid).PositionOf(cell), t);
  }

  bool IsMoveAllowed(GridCoord from, GridCoord to,
                     TimeStep t) const override {
    if (from == to) return IsFree(from, t + 1);
    const StripId sf = graph_.StripOf(from);
    const StripId st = graph_.StripOf(to);
    if (sf == st) {
      const SegmentStore* store =
          stores_[static_cast<std::size_t>(sf)].get();
      if (store == nullptr) return true;
      const Strip& strip = graph_.strip(sf);
      geometry::Segment probe({t, strip.PositionOf(from)},
                              {t + 1, strip.PositionOf(to)});
      return store->EarliestCollisionTime(probe) == kInfiniteTime;
    }
    if (!IsFree(to, t + 1)) return false;
    return !crossings_.WouldSwap(from, to, t);
  }

 private:
  const StripGraph& graph_;
  const std::vector<std::unique_ptr<SegmentStore>>& stores_;
  const BoundaryCrossings& crossings_;
};

std::unique_ptr<SegmentStore> MakeStore(bool use_slope_index,
                                        bool use_summary_pruning) {
  if (use_slope_index) {
    return std::make_unique<IndexedSegmentStore>(use_summary_pruning);
  }
  return std::make_unique<NaiveSegmentStore>(use_summary_pruning);
}

}  // namespace

/// Speculative query context: one private Search workspace per worker.
struct SrpPlanner::Context final : core::Planner::QueryContext {
  Context(const core::WarehouseMatrix& matrix, std::size_t strip_count)
      : search(matrix, strip_count) {}
  Search search;
};

SrpPlanner::SrpPlanner(const core::WarehouseMatrix& matrix,
                       const SrpPlannerOptions& options)
    : matrix_(matrix),
      options_(options),
      fallback_options_(options.fallback),
      graph_(matrix),
      serial_(matrix, graph_.strips().size()) {
  stores_.resize(graph_.strips().size());
  serial_.allow_timing = true;
  for (const Strip& s : graph_.strips()) {
    if (s.type == CellKind::kAisle) {
      stores_[static_cast<std::size_t>(s.id)] =
          MakeStore(options_.use_slope_index, options_.use_summary_pruning);
    }
  }
  // Resolve the effective fallback horizon without mutating the caller's
  // options: derive from the warehouse perimeter when unset, and floor it
  // there otherwise (a fallback that cannot cross the warehouse would turn
  // hard queries into spurious failures).
  if (fallback_options_.horizon <= 0) {
    fallback_options_.horizon = 4096;
  }
  fallback_options_.horizon =
      std::max<TimeStep>(fallback_options_.horizon,
                         4 * (matrix.height() + matrix.width()));
}

void SrpPlanner::Reset() {
  for (const Strip& s : graph_.strips()) {
    if (s.type == CellKind::kAisle) {
      stores_[static_cast<std::size_t>(s.id)] =
          MakeStore(options_.use_slope_index, options_.use_summary_pruning);
    }
  }
  crossings_.Clear();
  live_segments_ = 0;
  route_log_.clear();
  stats_ = core::PlannerStats{};
  prune_cutoff_ = 0;
  peak_segments_ = 0;
  serial_.ResetScratch();
  peak_search_bytes_ = 0;
  inter_watch_.Reset();
  intra_watch_.Reset();
  conversion_watch_.Reset();
}

std::size_t SrpPlanner::RetainedBytes() const {
  std::size_t bytes = graph_.RetainedBytes() + crossings_.RetainedBytes() +
                      peak_search_bytes_;
  for (const auto& store : stores_) {
    if (store) bytes += store->RetainedBytes();
  }
  return bytes;
}

SrpTimeBreakdown SrpPlanner::time_breakdown() const {
  SrpTimeBreakdown b;
  b.intra_seconds = intra_watch_.elapsed_seconds();
  b.conversion_seconds = conversion_watch_.elapsed_seconds();
  // inter_watch_ times the whole search including nested intra planning;
  // report the exclusive share.
  b.inter_seconds =
      std::max(0.0, inter_watch_.elapsed_seconds() - b.intra_seconds);
  return b;
}

std::optional<TimeStep> SrpPlanner::EarliestFreeStart(GridCoord cell,
                                                      TimeStep now) const {
  const StripId sid = graph_.StripOf(cell);
  const SegmentStore* store = StoreOf(sid);
  if (store == nullptr) return std::nullopt;  // rack cell origin
  const std::int64_t pos = graph_.strip(sid).PositionOf(cell);
  for (TimeStep t = now; t <= now + options_.max_dispatch_delay; ++t) {
    if (!store->OccupiedAt(pos, t)) return t;
  }
  return std::nullopt;
}

std::optional<TimeStep> SrpPlanner::CrossingTime(StripId u,
                                                 std::int64_t exit_pos,
                                                 StripId v,
                                                 std::int64_t entry_pos,
                                                 TimeStep depart0) const {
  const SegmentStore* store_u = StoreOf(u);
  const SegmentStore* store_v = StoreOf(v);
  const GridCoord exit_cell = graph_.strip(u).CellAt(exit_pos);
  const GridCoord entry_cell = graph_.strip(v).CellAt(entry_pos);

  // How long may we linger at the exit cell waiting for the crossing to
  // clear? Bounded by the first conflict of the longest wait probe,
  // computed lazily: the immediate crossing usually succeeds.
  TimeStep max_tau = depart0;
  bool max_tau_known = false;

  for (TimeStep tau = depart0;
       tau <= (max_tau_known ? max_tau : depart0 + options_.max_cross_wait);
       ++tau) {
    if (tau > depart0 && !max_tau_known) {
      geometry::Segment wait_probe(
          {depart0, exit_pos},
          {depart0 + options_.max_cross_wait, exit_pos});
      const TimeStep wc = store_u->EarliestCollisionTime(wait_probe);
      max_tau = wc == kInfiniteTime
                    ? depart0 + options_.max_cross_wait
                    : std::min(depart0 + options_.max_cross_wait, wc - 1);
      max_tau_known = true;
      if (tau > max_tau) break;
    }
    if (store_v->OccupiedAt(entry_pos, tau + 1)) continue;
    if (crossings_.WouldSwap(exit_cell, entry_cell, tau)) continue;
    return tau;
  }
  return std::nullopt;
}

SrpPlanner::Target SrpPlanner::TargetOf(Search& search, StripId strip,
                                        std::int64_t entry,
                                        int max_entries) {
  Target target;
  std::int32_t same = -1;
  std::int32_t latest = -1;
  const std::span<const std::int32_t> labels = search.EntriesOf(strip);
  for (const std::int32_t index : labels) {
    const Label& label = search[index];
    if (label.entry_pos == entry) {
      same = index;
      continue;
    }
    // A label whose final leg failed was reset to entry -1: a free slot,
    // not a competing entry.
    if (label.entry_pos >= 0) target.other_entry = true;
    if (!label.settled &&
        (latest < 0 || label.arrival > search[latest].arrival)) {
      latest = index;
    }
  }
  if (same < 0 && static_cast<int>(labels.size()) >= max_entries) {
    same = latest;
  }
  if (same >= 0) {
    target.label = same;
    target.bound = search[same].arrival;
    target.open = !search[same].settled;
  } else {
    target.open = static_cast<int>(labels.size()) < max_entries;
  }
  return target;
}

std::optional<SrpPath> SrpPlanner::StaticFirstPlan(
    Search& search, TimeStep start, GridCoord origin,
    GridCoord destination) const {
  const StripId vo = graph_.StripOf(origin);
  const StripId vd = graph_.StripOf(destination);
  if (StoreOf(vo) == nullptr || StoreOf(vd) == nullptr) return std::nullopt;

  // ---- Phase 1: probe-free static A* over the strip graph, one label per
  // strip. Labels carry travelled grid distance; no segment store is
  // consulted, so a relaxation costs a handful of integer operations.
  search.BeginPass();
  auto lower_bound = [&](GridCoord cell) -> TimeStep {
    return ManhattanDistance(cell, destination);
  };
  auto weighted = [&](TimeStep lb) -> TimeStep {
    if (!options_.use_goal_heuristic) return 0;
    return static_cast<TimeStep>(static_cast<double>(lb) *
                                 options_.heuristic_weight);
  };
  auto heuristic = [&](GridCoord cell) -> TimeStep {
    return options_.use_goal_heuristic ? weighted(lower_bound(cell)) : 0;
  };

  const std::int32_t origin_label = search.NewLabel(vo);
  search[origin_label].arrival = 0;
  search[origin_label].entry_pos = graph_.strip(vo).PositionOf(origin);

  // Ascending f, FIFO among equal f (see core/bucket_queue.h).
  core::BucketQueue<std::int32_t>& open = search.open;
  open.Push(heuristic(origin), 0, origin_label);

  std::int64_t settled_count = 0;
  std::int32_t reached = -1;
  while (!open.empty()) {
    const std::int32_t ui = open.Pop().payload;
    Label& lu = search[ui];
    if (lu.settled) continue;
    lu.settled = true;
    if (++settled_count > options_.max_strip_expansions) return std::nullopt;
    if (lu.strip == vd) {
      reached = ui;
      break;
    }
    // Relaxations may grow the pool: copy what they read of the label.
    const StripId u = lu.strip;
    const TimeStep arrival_u = lu.arrival;
    const std::int64_t entry_u = lu.entry_pos;
    const Strip& strip_u = graph_.strip(u);
    // Bound of the settled strip's entry cell, shared by every edge's
    // detour prune.
    const bool detour_prune =
        options_.detour_slack >= 0 && options_.use_goal_heuristic;
    const TimeStep lb_u =
        detour_prune ? lower_bound(strip_u.CellAt(entry_u)) : 0;

    graph_.ForEachEdgeInTube(
        u, entry_u, destination, detour_prune ? options_.detour_slack : -1,
        [&](const StripEdge& edge) {
      const StripId v = edge.to;
      if (StoreOf(v) == nullptr) return;  // rack strips not traversed

      const std::span<const StripContact> contacts = graph_.ContactsOf(edge);
      const StripContact& contact =
          v == vd ? ContactNearestToTarget(
                        contacts, graph_.strip(vd).PositionOf(destination))
                  : NearestContact(contacts, entry_u);
      const Target target = TargetOf(search, v, contact.pos_v, 1);
      if (!target.open) return;
      const std::int64_t hop_lb = entry_u > contact.pos_u
                                      ? entry_u - contact.pos_u
                                      : contact.pos_u - entry_u;
      // Popularity bias: strips that accumulated many segments are busy
      // corridors; a small penalty steers the static chain around them,
      // raising the timing pass's success rate.
      const std::int64_t congestion =
          static_cast<std::int64_t>(StoreOf(v)->size()) / 48;
      const TimeStep dist_v = arrival_u + hop_lb + 1 + congestion;
      if (dist_v >= target.bound) return;

      // One bound per surviving edge, shared by the detour prune and the
      // open-list key.
      const TimeStep lb_v =
          options_.use_goal_heuristic
              ? lower_bound(graph_.strip(v).CellAt(contact.pos_v))
              : 0;
      if (detour_prune) {
        const std::int64_t detour = hop_lb + 1 + lb_v - lb_u;
        if (detour > options_.detour_slack) return;
      }

      const std::int32_t vi =
          target.label >= 0 ? target.label : search.NewLabel(v);
      Label& lv = search[vi];
      lv.arrival = dist_v;
      lv.entry_pos = contact.pos_v;
      lv.pred = ui;
      lv.pred_exit_pos = contact.pos_u;
      open.Push(dist_v + weighted(lb_v), 0, vi);
    });
  }
  if (reached < 0) return std::nullopt;

  // Reconstruct the chain (strip, entry, exit) from vo to vd.
  struct Hop {
    StripId strip;
    std::int64_t entry;
    std::int64_t exit;  // -1 for the last hop (replaced by dest position)
  };
  std::vector<Hop> chain;
  {
    std::int64_t exit_pos = -1;
    for (std::int32_t at = reached; at >= 0; at = search[at].pred) {
      const Label& l = search[at];
      chain.push_back(Hop{l.strip, l.entry_pos, exit_pos});
      exit_pos = l.pred_exit_pos;
    }
    std::reverse(chain.begin(), chain.end());
  }
  chain.back().exit = graph_.strip(vd).PositionOf(destination);

  // ---- Phase 2: timing pass. Schedule the chain against the segment
  // stores, inserting waits; any infeasibility aborts the fast path.
  SrpPath path;
  TimeStep t = start;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Hop& hop = chain[i];
    auto intra =
        PlanWithinStrip(*StoreOf(hop.strip), t, hop.entry, hop.exit,
                        options_.intra);
    if (!intra.has_value()) return std::nullopt;

    StripLeg leg;
    leg.strip = hop.strip;
    leg.segments = std::move(intra->segments);

    if (i + 1 < chain.size()) {
      const Hop& next = chain[i + 1];
      auto tau = CrossingTime(hop.strip, hop.exit, next.strip, next.entry,
                              intra->arrival);
      if (!tau.has_value()) return std::nullopt;
      if (*tau > intra->arrival) {
        leg.segments.push_back(
            geometry::Segment({intra->arrival, hop.exit}, {*tau, hop.exit}));
      }
      t = *tau + 1;
    }
    path.legs.push_back(std::move(leg));
  }
  return path;
}

SrpPlanner::PassResult SrpPlanner::InterStripSearch(
    Search& search, TimeStep start, GridCoord origin, GridCoord destination,
    int max_entries, std::int64_t& budget) const {
  const bool timed = options_.enable_time_breakdown && search.allow_timing;
  if (timed) inter_watch_.Start();
  PassResult result;
  auto finish = [&](PassEnd end) {
    if (timed) inter_watch_.Stop();
    result.end = end;
    return std::move(result);
  };

  const StripId vo = graph_.StripOf(origin);
  const StripId vd = graph_.StripOf(destination);
  if (StoreOf(vo) == nullptr || StoreOf(vd) == nullptr) {
    return finish(PassEnd::kExhausted);
  }

  search.BeginPass();
  const std::int32_t origin_label = search.NewLabel(vo);
  search[origin_label].arrival = start;
  search[origin_label].entry_pos = graph_.strip(vo).PositionOf(origin);

  auto lower_bound = [&](GridCoord cell) -> TimeStep {
    return ManhattanDistance(cell, destination);
  };
  auto weighted = [&](TimeStep lb) -> TimeStep {
    if (!options_.use_goal_heuristic) return 0;
    return static_cast<TimeStep>(static_cast<double>(lb) *
                                 options_.heuristic_weight);
  };
  auto heuristic = [&](GridCoord cell) -> TimeStep {
    return options_.use_goal_heuristic ? weighted(lower_bound(cell)) : 0;
  };

  // Same (f asc, FIFO) order as StaticFirstPlan.
  core::BucketQueue<std::int32_t>& open = search.open;
  open.Push(start + heuristic(origin), 0, origin_label);

  std::int64_t settled_count = 0;
  int final_leg_failures = 0;
  while (!open.empty()) {
    const std::int32_t ui = open.Pop().payload;
    Label& lu = search[ui];
    if (lu.settled) continue;
    // Stale queue entries can outlive a label that was reset by a
    // final-leg failure; skip them until a fresh relaxation arrives.
    if (lu.arrival >= kInfiniteTime) continue;
    lu.settled = true;
    ++settled_count;
    if (--budget < 0) return finish(PassEnd::kSettledCap);
    search.peak_search_bytes = std::max(
        search.peak_search_bytes,
        static_cast<std::size_t>(settled_count) * (sizeof(Label) + 96) +
            open.size() * kOpenEntryBytes);
    const StripId u = lu.strip;
    const Strip& strip_u = graph_.strip(u);

    if (u == vd) {
      // Final leg: reach the destination grid inside this strip.
      if (timed) intra_watch_.Start();
      auto final_plan = PlanWithinStrip(
          *StoreOf(vd), lu.arrival, lu.entry_pos,
          strip_u.PositionOf(destination), options_.intra);
      if (timed) intra_watch_.Stop();
      if (!final_plan.has_value()) {
        // The entry we reached the destination strip through cannot reach
        // the destination grid (e.g. head-on traffic inside the strip).
        // Free the label and keep searching for a different entry instead
        // of escalating straight to the A* fallback.
        result.rescuable = true;
        if (++final_leg_failures > 8) {
          return finish(PassEnd::kFinalLegGiveUp);
        }
        lu.arrival = kInfiniteTime;
        lu.entry_pos = -1;
        lu.pred = -1;
        lu.settled = false;
        lu.pred_leg.clear();
        continue;
      }

      // Reconstruct the chain of labels from vo to vd.
      std::vector<std::int32_t> chain;
      for (std::int32_t at = ui; at >= 0; at = search[at].pred) {
        chain.push_back(at);
      }
      std::reverse(chain.begin(), chain.end());

      SrpPath path;
      for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        StripLeg leg;
        leg.strip = search[chain[i]].strip;
        leg.segments = search[chain[i + 1]].pred_leg;
        path.legs.push_back(std::move(leg));
      }
      StripLeg last;
      last.strip = vd;
      last.segments = std::move(final_plan->segments);
      path.legs.push_back(std::move(last));
      result.path = std::move(path);
      return finish(PassEnd::kFound);
    }

    // Relaxations may grow the pool: copy what they read of the label.
    const TimeStep arrival_u = lu.arrival;
    const std::int64_t entry_u = lu.entry_pos;
    // Bound of the settled entry cell (see StaticFirstPlan).
    const bool detour_prune =
        options_.detour_slack >= 0 && options_.use_goal_heuristic;
    const TimeStep lb_u =
        detour_prune ? lower_bound(strip_u.CellAt(entry_u)) : 0;
    // One memo of Alg. 2 answers for all of this label's exits.
    StripExits exits(*StoreOf(u), arrival_u, entry_u, options_.intra);

    // Only edges inside the geodesic tube are visited (see
    // StripGraph::ForEachEdgeInTube); the exact test below still applies.
    graph_.ForEachEdgeInTube(
        u, entry_u, destination, detour_prune ? options_.detour_slack : -1,
        [&](const StripEdge& edge) {
      const StripId v = edge.to;
      if (StoreOf(v) == nullptr) return;  // rack strips are not traversed

      // Greedy transit (Sec. VI): cross at the pair containing the source
      // grid — except into the destination strip, where entering next to
      // the goal avoids the worst of the Fig. 14 greedy-transit penalty.
      const std::span<const StripContact> contacts = graph_.ContactsOf(edge);
      const StripContact& contact =
          v == vd ? ContactNearestToTarget(
                        contacts, graph_.strip(vd).PositionOf(destination))
                  : NearestContact(contacts, entry_u);
      const Target target = TargetOf(search, v, contact.pos_v, max_entries);
      result.rescuable |= target.other_entry;
      if (!target.open) return;
      const std::int64_t hop_lb = entry_u > contact.pos_u
                                      ? entry_u - contact.pos_u
                                      : contact.pos_u - entry_u;

      // Relaxation pre-check: even a wait-free traversal cannot arrive in
      // v before this lower bound, so skip the (comparatively expensive)
      // intra-strip search when it cannot improve v's label.
      if (arrival_u + hop_lb + 1 >= target.bound) return;

      // One bound per surviving edge, shared by the tube prune and the
      // open-list key.
      const TimeStep lb_v =
          options_.use_goal_heuristic
              ? lower_bound(graph_.strip(v).CellAt(contact.pos_v))
              : 0;
      // Geodesic-tube pruning (see SrpPlannerOptions::detour_slack).
      if (detour_prune) {
        const std::int64_t detour = hop_lb + 1 + lb_v - lb_u;
        if (detour > options_.detour_slack) return;
      }

      if (timed) intra_watch_.Start();
      auto intra = exits.PlanTo(contact.pos_u);
      if (timed) intra_watch_.Stop();
      if (!intra.has_value()) return;

      if (timed) intra_watch_.Start();
      auto tau = CrossingTime(u, contact.pos_u, v, contact.pos_v,
                              intra->arrival);
      if (timed) intra_watch_.Stop();
      if (!tau.has_value()) return;

      const TimeStep arrival_v = *tau + 1;
      if (arrival_v < target.bound) {
        const std::int32_t vi =
            target.label >= 0 ? target.label : search.NewLabel(v);
        Label& lv = search[vi];
        lv.arrival = arrival_v;
        lv.entry_pos = contact.pos_v;
        lv.pred = ui;
        lv.pred_leg = std::move(intra->segments);
        if (*tau > intra->arrival) {
          lv.pred_leg.push_back(geometry::Segment(
              {intra->arrival, contact.pos_u}, {*tau, contact.pos_u}));
        }
        open.Push(arrival_v + weighted(lb_v), 0, vi);
      }
    });
  }
  return finish(PassEnd::kExhausted);
}

void SrpPlanner::CommitPath(const SrpPath& path) {
  for (std::size_t i = 0; i < path.legs.size(); ++i) {
    const StripLeg& leg = path.legs[i];
    SegmentStore* store = StoreOf(leg.strip);
    CARP_CHECK(store != nullptr) << "committing into a rack strip";
    for (const geometry::Segment& seg : leg.segments) {
      store->Insert(seg);
    }
    live_segments_ += static_cast<std::int64_t>(leg.segments.size());
    if (i + 1 < path.legs.size()) {
      const StripLeg& next = path.legs[i + 1];
      const GridCoord from =
          graph_.strip(leg.strip).CellAt(leg.leave_pos());
      const GridCoord to =
          graph_.strip(next.strip).CellAt(next.enter_pos());
      crossings_.Insert(from, to, leg.leave_time());
    }
  }
}

void SrpPlanner::ReleasePath(const SrpPath& path) {
  ScopedStatsSink sink(stats_);  // counts the line buckets Remove erases
  for (std::size_t i = 0; i < path.legs.size(); ++i) {
    const StripLeg& leg = path.legs[i];
    SegmentStore* store = StoreOf(leg.strip);
    CARP_CHECK(store != nullptr) << "releasing from a rack strip";
    for (const geometry::Segment& seg : leg.segments) {
      // Already-pruned segments are gone; Remove returning false is fine
      // (and keeps the live-segment count honest).
      if (store->Remove(seg)) --live_segments_;
    }
    if (i + 1 < path.legs.size()) {
      const StripLeg& next = path.legs[i + 1];
      const GridCoord from =
          graph_.strip(leg.strip).CellAt(leg.leave_pos());
      const GridCoord to =
          graph_.strip(next.strip).CellAt(next.enter_pos());
      crossings_.Remove(from, to, leg.leave_time());
    }
  }
}

bool SrpPlanner::ReleaseRoute(const core::Route& route) {
  // The log is the authority on whether the route is committed; only then
  // is touching the stores safe (releasing a never-committed route would
  // delete another route's identical segments).
  if (!EraseFromLog(route)) return false;
  ReleasePath(PathFromRoute(graph_, route));
  ++stats_.routes_released;
  MaybeAuditLifecycle();
  return true;
}

std::size_t SrpPlanner::PruneBefore(TimeStep t) {
  ScopedStatsSink sink(stats_);  // counts the line buckets pruning erases
  for (std::size_t s = 0; s < stores_.size(); ++s) {
    if (!stores_[s]) continue;
    live_segments_ -= static_cast<std::int64_t>(stores_[s]->PruneBefore(t));
  }
  crossings_.PruneBefore(t);
  prune_cutoff_ = std::max(prune_cutoff_, t);
  const std::size_t dropped = PruneLog(t);
  stats_.routes_pruned += static_cast<std::int64_t>(dropped);
  MaybeAuditLifecycle();
  return dropped;
}

std::string SrpPlanner::CheckInvariants() const {
  // Structural audits of the parts first — a lifecycle mismatch report is
  // only meaningful when the stores themselves are internally coherent.
  for (std::size_t s = 0; s < stores_.size(); ++s) {
    if (!stores_[s]) continue;
    if (std::string err = stores_[s]->CheckInvariants(); !err.empty()) {
      std::ostringstream out;
      out << "SrpPlanner: strip " << s << ": " << err;
      return out.str();
    }
  }
  if (std::string err = crossings_.CheckInvariants(); !err.empty()) {
    return "SrpPlanner: " + err;
  }
  // The live-segment counter (SegmentCount, the peak gauge) against the
  // stores it summarises.
  {
    std::int64_t stored = 0;
    for (const auto& store : stores_) {
      if (store) stored += static_cast<std::int64_t>(store->size());
    }
    if (stored != live_segments_) {
      std::ostringstream out;
      out << "SrpPlanner: live-segment counter is " << live_segments_
          << " but the stores hold " << stored;
      return out.str();
    }
  }

  // Replay the log through the same canonical decomposition every commit
  // used; what PruneBefore already dropped (segments ending, and crossings
  // departing, before the cutoff) is legitimately absent.
  using internal_store::PackedSegment;
  using CrossingKey = std::tuple<std::int32_t, std::int32_t, std::int32_t,
                                 std::int32_t, TimeStep>;
  std::vector<std::vector<PackedSegment>> expected(stores_.size());
  std::map<CrossingKey, std::int64_t> expected_crossings;
  std::int64_t expected_crossing_total = 0;
  for (const core::Route& route : route_log_) {
    const SrpPath path = PathFromRoute(graph_, route);
    for (std::size_t i = 0; i < path.legs.size(); ++i) {
      const StripLeg& leg = path.legs[i];
      for (const geometry::Segment& seg : leg.segments) {
        if (seg.finish().t < prune_cutoff_) continue;
        expected[static_cast<std::size_t>(leg.strip)].push_back(
            PackedSegment::Pack(seg));
      }
      if (i + 1 < path.legs.size() && leg.leave_time() >= prune_cutoff_) {
        const StripLeg& next = path.legs[i + 1];
        const GridCoord from =
            graph_.strip(leg.strip).CellAt(leg.leave_pos());
        const GridCoord to =
            graph_.strip(next.strip).CellAt(next.enter_pos());
        ++expected_crossings[CrossingKey{from.row, from.col, to.row, to.col,
                                         leg.leave_time()}];
        ++expected_crossing_total;
      }
    }
  }

  for (std::size_t s = 0; s < stores_.size(); ++s) {
    if (!stores_[s]) continue;
    std::vector<PackedSegment> actual;
    stores_[s]->ForEachLive([&](const geometry::Segment& seg) {
      actual.push_back(PackedSegment::Pack(seg));
    });
    std::vector<PackedSegment>& want = expected[s];
    std::sort(want.begin(), want.end());
    std::sort(actual.begin(), actual.end());
    if (want != actual) {
      std::ostringstream out;
      out << "SrpPlanner: strip " << s << " store holds " << actual.size()
          << " live segments but the " << route_log_.size()
          << " logged routes explain " << want.size() << " (prune cutoff "
          << prune_cutoff_ << ")";
      return out.str();
    }
  }

  for (const auto& [key, count] : expected_crossings) {
    const auto& [fr, fc, tr, tc, t] = key;
    const std::int64_t got =
        crossings_.CountOf(GridCoord{fr, fc}, GridCoord{tr, tc}, t);
    if (got != count) {
      std::ostringstream out;
      out << "SrpPlanner: crossing " << GridCoord{fr, fc} << "->"
          << GridCoord{tr, tc} << " at t=" << t << " recorded " << got
          << " times but the route log explains " << count;
      return out.str();
    }
  }
  // Per-key counts match and keys are a subset; equal totals rule out
  // unexplained extra keys in the registry.
  if (expected_crossing_total != crossings_.TotalCount()) {
    std::ostringstream out;
    out << "SrpPlanner: crossing registry totals " << crossings_.TotalCount()
        << " but the route log explains " << expected_crossing_total;
    return out.str();
  }
  return {};
}

void SrpPlanner::MaybeAuditLifecycle() {
  if (!lifecycle_audit_.Tick()) return;
  const std::string err = CheckInvariants();
  CARP_CHECK(err.empty()) << err;
}

std::uint64_t SrpPlanner::StateFingerprint() const {
  // Per-strip sums are order-independent within a strip; mixing the strip
  // id into each per-strip digest keeps identical segment multisets in
  // *different* strips from colliding. The whole digest is a sum of
  // independent contributions, so it is invariant under commit order,
  // tombstone placement, and compaction — exactly the equivalence the
  // rollback contract promises.
  std::uint64_t digest = core::Planner::StateFingerprint();
  for (std::size_t s = 0; s < stores_.size(); ++s) {
    if (!stores_[s]) continue;
    std::uint64_t strip_digest = 0;
    stores_[s]->ForEachLive([&](const geometry::Segment& seg) {
      const std::uint64_t lo =
          (static_cast<std::uint64_t>(
               static_cast<std::uint32_t>(seg.start().t))
           << 32) |
          static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(seg.start().pos));
      const std::uint64_t hi =
          (static_cast<std::uint64_t>(
               static_cast<std::uint32_t>(seg.finish().t))
           << 32) |
          static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(seg.finish().pos));
      strip_digest += Mix64(lo * 0x9e3779b97f4a7c15ULL ^ Mix64(hi));
    });
    digest += Mix64(strip_digest ^ Mix64(static_cast<std::uint64_t>(s) + 1));
  }
  digest += crossings_.ContentHash();
  digest += Mix64(static_cast<std::uint64_t>(live_segments_) ^
                  0x517cc1b727220a95ULL);
  return digest;
}

std::optional<core::Route> SrpPlanner::FallbackPlan(
    Search& search, core::PlannerStats& stats, TimeStep start,
    GridCoord origin, GridCoord destination) const {
  SegmentOracle oracle(graph_, stores_, crossings_);
  auto route = search.fallback_engine.Plan(oracle, start, origin, destination,
                                           fallback_options_);
  const auto& engine_stats = search.fallback_engine.last_stats();
  stats.expanded_nodes += engine_stats.expanded;
  search.peak_search_bytes =
      std::max(search.peak_search_bytes,
               engine_stats.peak_open_bytes + engine_stats.peak_closed_bytes);
  return route;
}

std::optional<SrpPlanner::Planned> SrpPlanner::PlanQuery(
    Search& search, core::PlannerStats& stats, TimeStep now, GridCoord origin,
    GridCoord destination) const {
  ScopedStatsSink sink(stats);
  ++stats.queries;
  if (!matrix_.IsTraversable(origin) || !matrix_.IsTraversable(destination)) {
    ++stats.failures;
    return std::nullopt;
  }

  const auto start = EarliestFreeStart(origin, now);
  if (!start.has_value()) {
    ++stats.failures;
    return std::nullopt;
  }

  const bool timed = options_.enable_time_breakdown && search.allow_timing;
  std::optional<SrpPath> path;
  if (options_.use_static_first) {
    if (timed) inter_watch_.Start();
    path = StaticFirstPlan(search, *start, origin, destination);
    if (timed) inter_watch_.Stop();
    if (path.has_value()) ++stats.static_path_hits;
  }
  // The settle cap, unless a pass ran dry or gave up on its final leg.
  core::FallbackReason reason = core::FallbackReason::kSettledCap;
  if (!path.has_value()) {
    // The first pass keeps one label per strip (Alg. 4). When it fails in
    // a way more entries could mend, the rescue pass reruns the search with
    // up to kRescueEntriesPerStrip entries per strip on the settle budget
    // the first pass left (DESIGN.md §2a).
    std::int64_t budget = options_.max_strip_expansions;
    PassResult first =
        InterStripSearch(search, *start, origin, destination, 1, budget);
    path = std::move(first.path);
    if (first.end == PassEnd::kExhausted && !first.rescuable) {
      reason = core::FallbackReason::kFirstPassExhausted;
    } else if (!path.has_value() && first.end != PassEnd::kSettledCap) {
      PassResult rescue = InterStripSearch(search, *start, origin,
                                           destination,
                                           kRescueEntriesPerStrip, budget);
      path = std::move(rescue.path);
      if (path.has_value()) ++stats.rescues;
      if (rescue.end == PassEnd::kExhausted) {
        reason = core::FallbackReason::kRescueExhausted;
      } else if (rescue.end == PassEnd::kFinalLegGiveUp) {
        reason = core::FallbackReason::kFinalLegGiveUp;
      }
    }
  }
  if (path.has_value()) {
    if (timed) conversion_watch_.Start();
    Planned planned{RouteFromPath(graph_, *path)};
    if (timed) conversion_watch_.Stop();
    return planned;
  }

  ++stats.fallbacks;
  ++stats.fallback_reasons[static_cast<std::size_t>(reason)];
  auto route = FallbackPlan(search, stats, *start, origin, destination);
  if (!route.has_value()) {
    ++stats.failures;
    return std::nullopt;
  }
  return Planned{std::move(*route)};
}

std::optional<core::Route> SrpPlanner::PlanRoute(TimeStep now,
                                                 GridCoord origin,
                                                 GridCoord destination) {
  auto planned = PlanQuery(serial_, stats_, now, origin, destination);
  peak_search_bytes_ =
      std::max(peak_search_bytes_, serial_.peak_search_bytes);
  if (!planned.has_value()) return std::nullopt;

  const bool timed = options_.enable_time_breakdown;
  if (timed) conversion_watch_.Start();
  // Canonical commit: always the PathFromRoute decomposition, so a later
  // ReleaseRoute removes exactly these segments (release symmetry).
  CommitPath(PathFromRoute(graph_, planned->route));
  if (timed) conversion_watch_.Stop();
  SamplePeakSegments();
  route_log_.push_back(planned->route);
  MaybeAuditLifecycle();
  return std::move(planned->route);
}

std::unique_ptr<core::Planner::QueryContext> SrpPlanner::MakeQueryContext()
    const {
  return std::make_unique<Context>(matrix_, graph_.strips().size());
}

std::optional<core::Route> SrpPlanner::QueryRoute(
    core::Planner::QueryContext& context, TimeStep now, GridCoord origin,
    GridCoord destination) const {
  auto& ctx = static_cast<Context&>(context);
  auto planned = PlanQuery(ctx.search, ctx.stats, now, origin, destination);
  if (!planned.has_value()) return std::nullopt;
  return std::move(planned->route);
}

void SrpPlanner::CommitRoute(const core::Route& route) {
  CommitPath(PathFromRoute(graph_, route));
  SamplePeakSegments();
  route_log_.push_back(route);
  MaybeAuditLifecycle();
}

void SrpPlanner::AbsorbQueryContext(core::Planner::QueryContext& context) {
  auto& ctx = static_cast<Context&>(context);
  peak_search_bytes_ =
      std::max(peak_search_bytes_, ctx.search.peak_search_bytes);
  ctx.search.peak_search_bytes = 0;
  core::Planner::AbsorbQueryContext(context);
}

}  // namespace carp::srp
