#include "srp/intra_strip_planner.h"

#include <algorithm>
#include <utility>

namespace carp::srp {

namespace {

using geometry::Segment;
using geometry::SpaceTimePoint;

class BacktrackingSearch {
 public:
  BacktrackingSearch(const SegmentStore& store,
                     const IntraPlanOptions& options, std::int64_t to_pos)
      : store_(store), options_(options), to_(to_pos) {}

  // Plans from (t, pos), whose direct move to the target the caller has
  // already probed and found colliding at `collision`. That probe is
  // counted here, so the budget is spent exactly as if this search had
  // issued it itself.
  bool Run(TimeStep t, std::int64_t pos, TimeStep collision,
           std::vector<Segment>& segments) {
    probes_ = 1;
    queries_ = 1;
    return Backtrack(t, pos, 0, collision, segments);
  }

  static std::uint64_t StateKey(TimeStep t, std::int64_t pos) {
    return (static_cast<std::uint64_t>(t) << 20) ^
           static_cast<std::uint64_t>(pos);
  }

  // Store queries actually issued, the caller's direct probe included.
  std::int64_t queries() const { return queries_; }

 private:
  TimeStep Query(const Segment& candidate) {
    ++probes_;
    ++queries_;
    return store_.EarliestCollisionTime(candidate);
  }

  // Earliest conflict of waiting the full max_wait at (t, pos). One stop
  // point is reachable from every state on its diagonal, so answers are
  // memoized; a reused answer still spends budget, which keeps the
  // search's shape (and so its routes) independent of the memo.
  TimeStep WaitConflict(TimeStep t, std::int64_t pos) {
    const std::uint64_t key = StateKey(t, pos);
    for (const auto& [k, conflict] : waits_) {
      if (k == key) {
        ++probes_;
        return conflict;
      }
    }
    const TimeStep conflict =
        Query(Segment({t, pos}, {t + options_.max_wait, pos}));
    waits_.emplace_back(key, conflict);
    return conflict;
  }

  bool BudgetExceeded() const { return probes_ > options_.max_probes; }

  // Tries to reach to_ from (t, pos). Appends the chosen segments on
  // success; leaves `segments` unchanged on failure.
  //
  // Failed (t, pos) states are memoized: whether the target is reachable
  // from a state depends only on the state itself (the store is fixed
  // during one call), so re-entering a failed state through a different
  // wait pattern cannot succeed. This prunes the exponential backtracking
  // tree of Alg. 2 to one visit per state. (States abandoned purely on
  // depth/probe budget are memoized too — conservative; the inter-strip
  // level routes around, or the A* fallback catches the query.) Every
  // memoized state spent one direct probe, so the memo holds at most
  // max_probes + 1 keys and a linear scan beats hashing.
  bool Search(TimeStep t, std::int64_t pos, std::int32_t depth,
              std::vector<Segment>& segments) {
    if (std::find(failed_.begin(), failed_.end(), StateKey(t, pos)) !=
        failed_.end()) {
      return false;
    }
    if (pos == to_) {
      // Already at target: record the point occupancy if nothing else will
      // (the caller needs the arrival instant represented).
      if (segments.empty()) {
        segments.push_back(Segment({t, pos}, {t, pos}));
      }
      return true;
    }
    if (depth > options_.max_stops || BudgetExceeded()) return false;

    // Greedy move all the way (Alg. 2 lines 8-12).
    const Segment direct({t, pos}, {t + Distance(pos), to_});
    const TimeStep c = Query(direct);
    if (c == kInfiniteTime) {
      segments.push_back(direct);
      return true;
    }
    return Backtrack(t, pos, depth, c, segments);
  }

  // The direct move from (t, pos) collides at time c: the prefix strictly
  // before c is collision-free. Try stopping right before the collision
  // and waiting (Alg. 2 lines 13-21); if waiting there dead-ends, back off
  // to earlier stop positions ("we return to the previous step, wait one
  // time unit and try to move again", Sec. V-C).
  bool Backtrack(TimeStep t, std::int64_t pos, std::int32_t depth,
                 TimeStep c, std::vector<Segment>& segments) {
    const std::int64_t dir = to_ > pos ? 1 : -1;
    const std::int64_t max_steps = std::max<std::int64_t>(
        0, std::min<TimeStep>(c - 1 - t, Distance(pos)));
    for (std::int64_t steps = max_steps; steps >= 0; --steps) {
      if (BudgetExceeded()) return false;
      const std::int64_t stop_pos = pos + dir * steps;
      const std::size_t mark = segments.size();
      if (steps > 0) {
        segments.push_back(Segment({t, pos}, {t + steps, stop_pos}));
      }
      const TimeStep stop_t = t + steps;
      // Longest collision-free wait at the stop position; waits beyond the
      // first conflicting instant can never succeed.
      const TimeStep wait_conflict = WaitConflict(stop_t, stop_pos);
      const TimeStep max_wait =
          wait_conflict == kInfiniteTime
              ? options_.max_wait
              : std::min<TimeStep>(options_.max_wait,
                                   wait_conflict - stop_t - 1);
      for (TimeStep w = 1; w <= max_wait; ++w) {
        if (BudgetExceeded()) break;
        segments.push_back(
            Segment({stop_t, stop_pos}, {stop_t + w, stop_pos}));
        if (Search(stop_t + w, stop_pos, depth + 1, segments)) return true;
        segments.pop_back();
      }
      segments.resize(mark);
    }
    failed_.push_back(StateKey(t, pos));
    return false;
  }

  std::int64_t Distance(std::int64_t pos) const {
    return to_ > pos ? to_ - pos : pos - to_;
  }

  const SegmentStore& store_;
  const IntraPlanOptions& options_;
  const std::int64_t to_;
  std::int64_t probes_ = 0;  // budget spent, reused wait answers included
  std::int64_t queries_ = 0;
  std::vector<std::uint64_t> failed_;
  std::vector<std::pair<std::uint64_t, TimeStep>> waits_;
};

}  // namespace

std::optional<IntraPlan> StripExits::PlanTo(std::int64_t exit) {
  IntraPlan plan;
  if (exit == entry_) {
    // Already at the target position: the occupancy point is the caller's
    // legally-held state, no collision query needed.
    plan.segments.push_back(Segment({start_, entry_}, {start_, entry_}));
    plan.arrival = start_;
    return plan;
  }

  const std::int64_t dist = exit > entry_ ? exit - entry_ : entry_ - exit;
  Side& side = sides_[exit > entry_ ? 1 : 0];
  if (dist >= side.failed_from) return std::nullopt;

  // Fast path: the unobstructed greedy move (the overwhelmingly common
  // case) needs one collision query, and none inside a known free move.
  const Segment direct({start_, entry_}, {start_ + dist, exit});
  if (dist > side.free_to) {
    const TimeStep collision = store_.EarliestCollisionTime(direct);
    if (collision != kInfiniteTime) {
      BacktrackingSearch search(store_, options_, exit);
      if (!search.Run(start_, entry_, collision, plan.segments)) {
        side.failed_from = dist;
        return std::nullopt;
      }
      plan.arrival = plan.segments.back().finish().t;
      plan.probes = search.queries();
      return plan;
    }
    side.free_to = dist;
    plan.probes = 1;
  }
  plan.segments.push_back(direct);
  plan.arrival = direct.finish().t;
  return plan;
}

std::optional<IntraPlan> PlanWithinStrip(const SegmentStore& store,
                                         TimeStep start,
                                         std::int64_t from_pos,
                                         std::int64_t to_pos,
                                         const IntraPlanOptions& options) {
  return StripExits(store, start, from_pos, options).PlanTo(to_pos);
}

}  // namespace carp::srp
