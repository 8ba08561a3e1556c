#include "srp/intra_strip_planner.h"

#include <algorithm>
#include <functional>
#include <iostream>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "srp/segment_index.h"

namespace carp::srp {
namespace {

using geometry::Segment;

// Checks the plan is internally consistent: contiguous segments,
// monotonic movement toward the target, and collision-free against the
// store it was planned on.
void CheckPlan(const SegmentStore& store, const IntraPlan& plan,
               TimeStep start, std::int64_t from, std::int64_t to) {
  ASSERT_FALSE(plan.segments.empty());
  EXPECT_EQ(plan.segments.front().start().t, start);
  EXPECT_EQ(plan.segments.front().start().pos, from);
  EXPECT_EQ(plan.segments.back().finish().pos, to);
  EXPECT_EQ(plan.arrival, plan.segments.back().finish().t);
  const int dir = to > from ? 1 : (to < from ? -1 : 0);
  for (std::size_t i = 0; i < plan.segments.size(); ++i) {
    const Segment& seg = plan.segments[i];
    if (i > 0) {
      EXPECT_EQ(plan.segments[i - 1].finish(), seg.start());
    }
    // No backward movement (Sec. V-C restriction).
    if (dir != 0) {
      EXPECT_TRUE(seg.slope() == 0 || seg.slope() == dir)
          << "segment " << seg << " moves backward";
    }
    EXPECT_EQ(store.EarliestCollisionTime(seg), kInfiniteTime)
        << "planned segment collides: " << seg;
  }
}

class IntraStripPlannerTest : public ::testing::Test {
 protected:
  IndexedSegmentStore store_;
  IntraPlanOptions options_;
};

TEST_F(IntraStripPlannerTest, EmptyStripDirectMove) {
  auto plan = PlanWithinStrip(store_, 5, 2, 9, options_);
  ASSERT_TRUE(plan.has_value());
  CheckPlan(store_, *plan, 5, 2, 9);
  EXPECT_EQ(plan->arrival, 12);  // 7 moves, no waits
  EXPECT_EQ(plan->segments.size(), 1u);
}

TEST_F(IntraStripPlannerTest, BackwardDirectionSupported) {
  auto plan = PlanWithinStrip(store_, 0, 9, 3, options_);
  ASSERT_TRUE(plan.has_value());
  CheckPlan(store_, *plan, 0, 9, 3);
  EXPECT_EQ(plan->arrival, 6);
}

TEST_F(IntraStripPlannerTest, AlreadyThereYieldsPointSegment) {
  auto plan = PlanWithinStrip(store_, 7, 4, 4, options_);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->segments.size(), 1u);
  EXPECT_TRUE(plan->segments[0].is_point());
  EXPECT_EQ(plan->arrival, 7);
}

TEST_F(IntraStripPlannerTest, WaitsForOpposingTraffic) {
  // Oncoming robot sweeps 10 -> 5 over t=0..5 and then leaves the strip;
  // we go 0 -> 10 from t=0. Meeting it head-on is avoided by waiting one
  // step and letting it exit first.
  store_.Insert(Segment({0, 10}, {5, 5}));
  auto plan = PlanWithinStrip(store_, 0, 0, 10, options_);
  ASSERT_TRUE(plan.has_value());
  CheckPlan(store_, *plan, 0, 0, 10);
  EXPECT_GT(plan->arrival, 10);  // must have waited
}

TEST_F(IntraStripPlannerTest, FullCorridorHeadOnIsInfeasible) {
  // Oncoming robot traverses the whole strip 10 -> 0 over t=0..10 while
  // we need 0 -> 10: without backward moves two robots cannot pass in a
  // 1-D corridor, so intra-strip planning must fail (the inter-strip
  // level or the A* fallback resolves such cases by leaving the strip).
  store_.Insert(Segment({0, 10}, {10, 0}));
  auto plan = PlanWithinStrip(store_, 0, 0, 10, options_);
  EXPECT_FALSE(plan.has_value());
}

TEST_F(IntraStripPlannerTest, WaitsOutAParkedRobotAhead) {
  // A robot occupies pos 5 for t in [0, 6]; we pass through it.
  store_.Insert(Segment({0, 5}, {6, 5}));
  auto plan = PlanWithinStrip(store_, 0, 0, 9, options_);
  ASSERT_TRUE(plan.has_value());
  CheckPlan(store_, *plan, 0, 0, 9);
  // Cannot be at pos 5 before t=7: arrival >= 7 + 4.
  EXPECT_GE(plan->arrival, 11);
}

TEST_F(IntraStripPlannerTest, NoWaitWhenFollowingAhead) {
  // Robot ahead moving the same direction one step ahead of us: legal
  // following, no waits needed.
  store_.Insert(Segment({0, 1}, {9, 10}));
  auto plan = PlanWithinStrip(store_, 0, 0, 9, options_);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->arrival, 9);
  EXPECT_EQ(plan->segments.size(), 1u);
}

TEST_F(IntraStripPlannerTest, FailsWhenOriginPermanentlyBoxedIn) {
  // Robot parked right ahead for a very long time and the waiting spot
  // is swept repeatedly, exhausting the budgets.
  store_.Insert(Segment({0, 1}, {100000, 1}));
  options_.max_wait = 16;
  options_.max_stops = 4;
  options_.max_probes = 256;
  auto plan = PlanWithinStrip(store_, 0, 0, 5, options_);
  EXPECT_FALSE(plan.has_value());
}

TEST_F(IntraStripPlannerTest, StopsBeforeCollisionThenProceeds) {
  // A crossing robot occupies pos 6 exactly at t=6 (our arrival instant
  // if we go straight from pos 0 at t=0). One wait resolves it.
  store_.Insert(Segment({6, 6}, {6, 6}));
  auto plan = PlanWithinStrip(store_, 0, 0, 9, options_);
  ASSERT_TRUE(plan.has_value());
  CheckPlan(store_, *plan, 0, 0, 9);
  EXPECT_EQ(plan->arrival, 10);  // exactly one wait inserted
}

TEST_F(IntraStripPlannerTest, ProbeBudgetRespected) {
  options_.max_probes = 1;
  store_.Insert(Segment({0, 5}, {50, 5}));
  auto plan = PlanWithinStrip(store_, 0, 0, 9, options_);
  EXPECT_FALSE(plan.has_value());
}

// Forwards to a real store and records every collision query, so a test
// can see exactly which candidates one PlanWithinStrip call probed.
class RecordingStore final : public SegmentStore {
 public:
  void Insert(const Segment& segment) override { inner_.Insert(segment); }
  bool Remove(const Segment& segment) override {
    return inner_.Remove(segment);
  }
  std::size_t PruneBefore(TimeStep t) override {
    return inner_.PruneBefore(t);
  }
  TimeStep EarliestCollisionTime(const Segment& candidate) const override {
    probed.push_back(candidate);
    return inner_.EarliestCollisionTime(candidate);
  }
  std::size_t size() const override { return inner_.size(); }
  std::size_t RetainedBytes() const override {
    return inner_.RetainedBytes();
  }
  void ForEachLive(
      const std::function<void(const Segment&)>& fn) const override {
    inner_.ForEachLive(fn);
  }

  mutable std::vector<Segment> probed;

 private:
  NaiveSegmentStore inner_;
};

// Asserts that one PlanWithinStrip call probed no candidate twice and
// reported the number of store queries it really made.
void ExpectEachCandidateProbedOnce(const RecordingStore& store,
                                   const std::optional<IntraPlan>& plan) {
  for (std::size_t a = 0; a < store.probed.size(); ++a) {
    for (std::size_t b = a + 1; b < store.probed.size(); ++b) {
      EXPECT_NE(store.probed[a], store.probed[b])
          << "probed " << store.probed[a] << " twice";
    }
  }
  if (plan.has_value()) {
    EXPECT_EQ(plan->probes, static_cast<std::int64_t>(store.probed.size()));
  }
}

// The backtracking search starts from the direct probe the fast path
// already made, and stop points shared by several states reuse their wait
// probe.
TEST(IntraStripProbeTest, NoCandidateProbedTwice) {
  struct Scenario {
    std::vector<Segment> traffic;
    TimeStep start;
    std::int64_t from;
    std::int64_t to;
  };
  const std::vector<Scenario> scenarios = {
      {{Segment({0, 10}, {5, 5})}, 0, 0, 10},
      {{Segment({0, 10}, {10, 0})}, 0, 0, 10},
      {{Segment({0, 5}, {6, 5})}, 0, 0, 9},
      {{Segment({6, 6}, {6, 6})}, 0, 0, 9},
      {{Segment({0, 5}, {50, 5})}, 0, 0, 9},
      {{Segment({5, 4}, {5, 4}), Segment({7, 3}, {9, 3})}, 0, 9, 0},
  };
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "scenario " << i);
    const Scenario& sc = scenarios[i];
    RecordingStore store;
    for (const Segment& seg : sc.traffic) store.Insert(seg);
    auto plan =
        PlanWithinStrip(store, sc.start, sc.from, sc.to, IntraPlanOptions{});
    ASSERT_GT(store.probed.size(), 1u);  // the search ran
    ExpectEachCandidateProbedOnce(store, plan);
  }
}

// Property test: against random congestion, any returned plan must be
// collision-free, monotone, and contiguous, and no call may probe a
// candidate twice.
class IntraPlannerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IntraPlannerPropertyTest, PlansAreAlwaysConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 5);
  for (int iter = 0; iter < 80; ++iter) {
    RecordingStore store;
    const std::int64_t strip_len = 12;
    const int population = static_cast<int>(rng.UniformU32(12));
    for (int i = 0; i < population; ++i) {
      const TimeStep t0 = rng.UniformInt(0, 30);
      const std::int64_t p0 = rng.UniformInt(0, strip_len - 1);
      const TimeStep dur = rng.UniformInt(0, 8);
      const int slope = static_cast<int>(rng.UniformInt(-1, 1));
      std::int64_t p1 = p0 + slope * dur;
      if (p1 < 0 || p1 >= strip_len) p1 = p0;
      store.Insert(Segment({t0, p0}, {t0 + dur, p1}));
    }
    const std::int64_t from = rng.UniformInt(0, strip_len - 1);
    const std::int64_t to = rng.UniformInt(0, strip_len - 1);
    const TimeStep start = rng.UniformInt(0, 10);
    if (store.OccupiedAt(from, start)) continue;  // illegal query state
    store.probed.clear();
    IntraPlanOptions options;
    auto plan = PlanWithinStrip(store, start, from, to, options);
    ExpectEachCandidateProbedOnce(store, plan);
    if (plan.has_value()) {
      CheckPlan(store, *plan, start, from, to);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntraPlannerPropertyTest,
                         ::testing::Range(0, 10));

// ---- StripExits: one settled state's answers shared across its exits
// (DESIGN.md §2a).

// Fills a strip of `length` grid numbers with traffic: either random
// segments, or routes that PlanWithinStrip itself plans and commits, each
// followed by a long dwell at its target (the shape of a robot parked at a
// rack or waiting to cross).
void FillStrip(Rng& rng, std::int64_t length, SegmentStore& store) {
  const bool committed = rng.Bernoulli(0.5);
  const int population = static_cast<int>(rng.UniformInt(0, 16));
  for (int i = 0; i < population; ++i) {
    const TimeStep t0 = rng.UniformInt(0, 40);
    const std::int64_t p0 = rng.UniformInt(0, length - 1);
    if (!committed) {
      const TimeStep dur = rng.UniformInt(0, 12);
      const int slope = static_cast<int>(rng.UniformInt(-1, 1));
      std::int64_t p1 = p0 + slope * dur;
      if (p1 < 0 || p1 >= length) p1 = p0;
      store.Insert(Segment({t0, p0}, {t0 + dur, p1}));
      continue;
    }
    if (store.OccupiedAt(p0, t0)) continue;
    const std::int64_t p1 = rng.UniformInt(0, length - 1);
    auto route = PlanWithinStrip(store, t0, p0, p1, IntraPlanOptions{});
    if (!route.has_value()) continue;
    for (const Segment& seg : route->segments) store.Insert(seg);
    const Segment dwell({route->arrival, p1},
                        {route->arrival + rng.UniformInt(1, 60), p1});
    if (store.EarliestCollisionTime(dwell) == kInfiniteTime) {
      store.Insert(dwell);
    }
  }
}

class StripExitsPropertyTest : public ::testing::TestWithParam<int> {};

// PlanTo answers every exit, visited in any order, exactly as a fresh
// PlanWithinStrip call does, and Alg. 2 itself never reaches an exit past
// one it failed to reach in the same direction (the rule the memo relies
// on). The counters make sure both memo rules actually fired.
TEST_P(StripExitsPropertyTest, MemoAnswersEveryExitLikeAFreshSearch) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 11);
  std::int64_t exits_checked = 0;
  std::int64_t skipped_past_failure = 0;  // rule (a) answered it
  std::int64_t prefix_reused = 0;         // rule (b) answered it
  std::int64_t searched_and_found = 0;    // Alg. 2 backtracking succeeded
  std::int64_t past_failure_cases = 0;    // reference failures past one
  for (int strip = 0; strip < 500; ++strip) {
    RecordingStore store;
    const std::int64_t length = rng.UniformInt(4, 40);
    FillStrip(rng, length, store);
    IntraPlanOptions options;
    if (rng.Bernoulli(0.3)) {
      options.max_wait = static_cast<std::int32_t>(rng.UniformInt(1, 24));
      options.max_stops = static_cast<std::int32_t>(rng.UniformInt(1, 32));
      options.max_probes = rng.UniformInt(2, 64);
    }
    for (int query = 0; query < 6; ++query) {
      const TimeStep start = rng.UniformInt(0, 40);
      const std::int64_t entry = rng.UniformInt(0, length - 1);
      if (store.OccupiedAt(entry, start)) continue;  // illegal query state
      SCOPED_TRACE(::testing::Message()
                   << "strip " << strip << " length " << length << " start "
                   << start << " entry " << entry);

      std::vector<std::int64_t> order(static_cast<std::size_t>(length));
      for (std::int64_t x = 0; x < length; ++x) order[x] = x;
      rng.Shuffle(order);

      StripExits exits(store, start, entry, options);
      // Per direction (0: lower grid numbers, 1: higher), the nearest
      // failure and the farthest free direct move seen so far.
      std::int64_t nearest_failure[2] = {length, length};
      std::int64_t farthest_free[2] = {0, 0};
      std::vector<bool> reachable(static_cast<std::size_t>(length));
      for (const std::int64_t x : order) {
        const std::int64_t dist = x > entry ? x - entry : entry - x;
        const int side = x > entry ? 1 : 0;
        store.probed.clear();
        const auto got = exits.PlanTo(x);
        const std::size_t memo_probes = store.probed.size();
        const auto want = PlanWithinStrip(store, start, entry, x, options);
        ++exits_checked;

        ASSERT_EQ(got.has_value(), want.has_value()) << "exit " << x;
        if (want.has_value()) {
          EXPECT_EQ(got->segments, want->segments) << "exit " << x;
          EXPECT_EQ(got->arrival, want->arrival) << "exit " << x;
          EXPECT_EQ(got->probes, static_cast<std::int64_t>(memo_probes));
        }
        reachable[x] = want.has_value();
        if (x == entry) continue;

        if (dist >= nearest_failure[side]) {
          ++skipped_past_failure;
          EXPECT_EQ(memo_probes, 0u) << "exit " << x << " was searched";
        } else if (dist <= farthest_free[side]) {
          ++prefix_reused;
          EXPECT_EQ(memo_probes, 0u) << "exit " << x << " was probed";
        }
        const Segment direct({start, entry}, {start + dist, x});
        if (!want.has_value()) {
          nearest_failure[side] = std::min(nearest_failure[side], dist);
        } else if (want->segments.size() == 1 &&
                   want->segments[0] == direct) {
          farthest_free[side] = std::max(farthest_free[side], dist);
        } else {
          ++searched_and_found;
        }
      }

      // Alg. 2 alone: no exit past a failed one is reachable.
      for (const int dir : {-1, 1}) {
        bool failed = false;
        for (std::int64_t x = entry + dir; x >= 0 && x < length; x += dir) {
          if (failed) {
            ++past_failure_cases;
            EXPECT_FALSE(reachable[x])
                << "exit " << x << " reached past a failed exit";
          }
          failed = failed || !reachable[x];
        }
      }
    }
  }
  EXPECT_GT(exits_checked, 40000);
  EXPECT_GT(skipped_past_failure, 5000);
  EXPECT_GT(prefix_reused, 20000);
  EXPECT_GT(searched_and_found, 3000);
  EXPECT_GT(past_failure_cases, 5000);
  std::cout << "exits " << exits_checked << ", skipped past a failure "
            << skipped_past_failure << ", prefix reused " << prefix_reused
            << ", backtracking found " << searched_and_found
            << ", past-a-failure cases " << past_failure_cases << "\n";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StripExitsPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace carp::srp
