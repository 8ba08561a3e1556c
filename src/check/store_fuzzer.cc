#include "check/store_fuzzer.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "check/faulty_store.h"
#include "check/reference_store.h"
#include "common/rng.h"
#include "srp/segment_index.h"

namespace carp::check {

namespace {

using srp::internal_store::PackedSegment;

/// Everything the fuzzer knows about one store under test.
struct StoreUnderTest {
  std::string name;
  std::unique_ptr<srp::SegmentStore> store;
};

std::vector<PackedSegment> LiveMultiset(const srp::SegmentStore& store) {
  std::vector<PackedSegment> live;
  store.ForEachLive([&](const geometry::Segment& s) {
    live.push_back(PackedSegment::Pack(s));
  });
  std::sort(live.begin(), live.end());
  return live;
}

/// A random segment with slope in {-1, 0, +1} inside the fuzzed strip.
geometry::Segment RandomSegment(Rng& rng, const StoreFuzzOptions& opt) {
  const std::int64_t dur =
      std::min(rng.UniformInt(0, opt.max_duration), opt.strip_length);
  const std::int64_t t0 = rng.UniformInt(0, opt.time_horizon);
  const std::int64_t slope = rng.UniformInt(-1, 1);
  std::int64_t p0 = 0;
  if (slope > 0) {
    p0 = rng.UniformInt(0, opt.strip_length - dur);
  } else if (slope < 0) {
    p0 = rng.UniformInt(dur, opt.strip_length);
  } else {
    p0 = rng.UniformInt(0, opt.strip_length);
  }
  return geometry::Segment({t0, p0}, {t0 + dur, p0 + slope * dur});
}

/// Rolling op log so a divergence report shows how the state was reached.
class OpLog {
 public:
  void Note(const std::string& line) {
    if (lines_.size() >= 16) lines_.erase(lines_.begin());
    lines_.push_back(line);
  }
  std::string Dump() const {
    std::ostringstream out;
    for (const std::string& line : lines_) out << "\n  " << line;
    return out.str();
  }

 private:
  std::vector<std::string> lines_;
};

}  // namespace

std::vector<NamedStoreFactory> DefaultStoreFactories() {
  // Both production stores across both scan modes (block-summary two-level
  // vs the flat legacy scan), so the summary pass stays answer-identical
  // to the exhaustive flat scan.
  std::vector<NamedStoreFactory> factories;
  for (const bool summaries : {true, false}) {
    const std::string suffix = summaries ? "" : "-nosummaries";
    factories.push_back({"naive" + suffix, [summaries] {
                           return std::make_unique<srp::NaiveSegmentStore>(
                               summaries);
                         }});
    factories.push_back({"indexed" + suffix, [summaries] {
                           return std::make_unique<srp::IndexedSegmentStore>(
                               summaries);
                         }});
  }
  return factories;
}

StoreFuzzResult FuzzOneSeed(std::uint64_t seed, const StoreFuzzOptions& opt,
                            const std::vector<NamedStoreFactory>& factories) {
  StoreFuzzResult result;
  Rng rng(seed);
  OpLog log;

  ReferenceSegmentStore reference;
  std::vector<StoreUnderTest> stores;
  for (const NamedStoreFactory& f : factories) {
    stores.push_back(StoreUnderTest{f.name, f.make()});
  }
  // Mirror of the reference's live set, for generating removes that mostly
  // hit and inserts that sometimes duplicate a committed segment (the
  // tombstone / refcount paths need duplicates to be exercised at all).
  std::vector<geometry::Segment> committed;

  auto fail = [&](std::uint64_t s, int op_index,
                  const std::string& what) -> StoreFuzzResult {
    std::ostringstream out;
    out << "store fuzz divergence: seed=" << s << " op=" << op_index << ": "
        << what << "\nlast ops (replay with this seed):" << log.Dump();
    result.ok = false;
    result.failing_seed = s;
    result.error = out.str();
    return result;
  };

  for (int op = 0; op < opt.ops_per_seed; ++op) {
    ++result.ops_executed;
    const std::uint32_t roll = rng.UniformU32(100);
    std::ostringstream opdesc;

    if (roll < 40) {  // Insert (1 in 4 a duplicate of a committed segment)
      geometry::Segment seg =
          (!committed.empty() && rng.UniformU32(4) == 0)
              ? committed[rng.UniformU32(
                    static_cast<std::uint32_t>(committed.size()))]
              : RandomSegment(rng, opt);
      opdesc << "Insert " << seg;
      reference.Insert(seg);
      committed.push_back(seg);
      for (auto& s : stores) s.store->Insert(seg);
    } else if (roll < 60) {  // Remove (mostly of a committed segment)
      geometry::Segment seg =
          (!committed.empty() && rng.UniformU32(10) < 8)
              ? committed[rng.UniformU32(
                    static_cast<std::uint32_t>(committed.size()))]
              : RandomSegment(rng, opt);
      opdesc << "Remove " << seg;
      const bool ref_removed = reference.Remove(seg);
      if (ref_removed) {
        auto it = std::find(committed.begin(), committed.end(), seg);
        if (it != committed.end()) committed.erase(it);
      }
      for (auto& s : stores) {
        const bool removed = s.store->Remove(seg);
        if (removed != ref_removed) {
          std::ostringstream what;
          what << s.name << " Remove(" << seg << ") returned " << removed
               << ", reference returned " << ref_removed;
          return fail(seed, op, what.str());
        }
      }
    } else if (roll < 66) {  // PruneBefore
      const TimeStep t = rng.UniformInt(0, opt.time_horizon + opt.max_duration);
      opdesc << "PruneBefore " << t;
      const std::size_t ref_dropped = reference.PruneBefore(t);
      std::erase_if(committed, [t](const geometry::Segment& s) {
        return s.finish().t < t;
      });
      for (auto& s : stores) {
        const std::size_t dropped = s.store->PruneBefore(t);
        if (dropped != ref_dropped) {
          std::ostringstream what;
          what << s.name << " PruneBefore(" << t << ") dropped " << dropped
               << ", reference dropped " << ref_dropped;
          return fail(seed, op, what.str());
        }
      }
    } else if (roll < 86) {  // EarliestCollisionTime
      const geometry::Segment probe = RandomSegment(rng, opt);
      opdesc << "EarliestCollisionTime " << probe;
      const TimeStep ref_time = reference.EarliestCollisionTime(probe);
      for (const auto& s : stores) {
        const TimeStep t = s.store->EarliestCollisionTime(probe);
        if (t != ref_time) {
          std::ostringstream what;
          what << s.name << " EarliestCollisionTime(" << probe
               << ") = " << t << ", reference = " << ref_time;
          return fail(seed, op, what.str());
        }
      }
    } else {  // OccupiedAt
      const std::int64_t pos = rng.UniformInt(0, opt.strip_length);
      const TimeStep t = rng.UniformInt(0, opt.time_horizon + opt.max_duration);
      opdesc << "OccupiedAt pos=" << pos << " t=" << t;
      const bool ref_occ = reference.OccupiedAt(pos, t);
      for (const auto& s : stores) {
        const bool occ = s.store->OccupiedAt(pos, t);
        if (occ != ref_occ) {
          std::ostringstream what;
          what << s.name << " OccupiedAt(" << pos << "," << t << ") = " << occ
               << ", reference = " << ref_occ;
          return fail(seed, op, what.str());
        }
      }
    }
    log.Note(opdesc.str());

    // ---- After-every-op audit: sizes, invariants, live multisets, memory.
    const std::vector<PackedSegment> ref_live = LiveMultiset(reference);
    if (reference.size() != ref_live.size()) {
      return fail(seed, op, "reference size disagrees with its own content");
    }
    for (const auto& s : stores) {
      if (s.store->size() != reference.size()) {
        std::ostringstream what;
        what << s.name << " size " << s.store->size() << ", reference "
             << reference.size();
        return fail(seed, op, what.str());
      }
      if (std::string err = s.store->CheckInvariants(); !err.empty()) {
        return fail(seed, op, s.name + " invariant: " + err);
      }
      if (LiveMultiset(*s.store) != ref_live) {
        std::ostringstream what;
        what << s.name << " live multiset diverged from reference (sizes "
             << s.store->size() << " vs " << reference.size() << ")";
        return fail(seed, op, what.str());
      }
      // Memory boundedness: retained bytes must track the population
      // (live + tombstoned), not the historical peak — a store that never
      // compacts or shrinks fails here long before it fails anything else.
      const auto stats = s.store->stats();
      const std::size_t population =
          s.store->size() + static_cast<std::size_t>(stats.tombstones);
      const std::size_t bound = 8192 + 128 * population;
      if (s.store->RetainedBytes() > bound) {
        std::ostringstream what;
        what << s.name << " retains " << s.store->RetainedBytes()
             << " bytes for " << population
             << " live+tombstoned segments (bound " << bound << ")";
        return fail(seed, op, what.str());
      }
    }
  }
  return result;
}

StoreFuzzResult FuzzStores(const StoreFuzzOptions& opt,
                           const std::vector<NamedStoreFactory>& factories) {
  StoreFuzzResult total;
  for (int i = 0; i < opt.num_seeds; ++i) {
    StoreFuzzResult one = FuzzOneSeed(opt.seed + static_cast<std::uint64_t>(i),
                                      opt, factories);
    total.ops_executed += one.ops_executed;
    if (!one.ok) {
      total.ok = false;
      total.failing_seed = one.failing_seed;
      total.error = std::move(one.error);
      return total;
    }
  }
  return total;
}

namespace {

StoreFuzzResult FuzzLifecycleRollbackOneSeed(std::uint64_t seed,
                                             const LifecycleFuzzOptions& opt,
                                             bool inject_lost_rollback) {
  StoreFuzzResult result;
  Rng rng(seed);
  OpLog log;

  ReferenceSegmentStore reference;
  std::vector<StoreUnderTest> stores;
  if (inject_lost_rollback) {
    stores.push_back(StoreUnderTest{
        "faulty-lost-rollback",
        std::make_unique<FaultySegmentStore>(StoreFault::kLostRollback)});
  } else {
    stores.push_back(StoreUnderTest{
        "naive", std::make_unique<srp::NaiveSegmentStore>()});
    stores.push_back(StoreUnderTest{
        "indexed", std::make_unique<srp::IndexedSegmentStore>()});
  }

  StoreFuzzOptions seg;
  seg.strip_length = opt.strip_length;
  seg.time_horizon = opt.time_horizon;
  seg.max_duration = opt.max_duration;

  // Committed "routes": each is the segment multiset one commit inserted.
  std::vector<std::vector<geometry::Segment>> routes;

  auto fail = [&](int round, const std::string& what) -> StoreFuzzResult {
    std::ostringstream out;
    out << "lifecycle rollback divergence: seed=" << seed
        << " round=" << round << ": " << what
        << "\nlast ops (replay with this seed):" << log.Dump();
    result.ok = false;
    result.failing_seed = seed;
    result.error = out.str();
    return result;
  };

  auto make_route = [&] {
    std::vector<geometry::Segment> route;
    for (int i = 0; i < opt.segments_per_route; ++i) {
      route.push_back(RandomSegment(rng, seg));
    }
    return route;
  };
  auto insert_route = [&](const std::vector<geometry::Segment>& route) {
    for (const geometry::Segment& s : route) {
      reference.Insert(s);
      for (auto& st : stores) st.store->Insert(s);
    }
  };

  for (int round = 0; round < opt.rounds_per_seed; ++round) {
    ++result.ops_executed;
    const std::uint32_t roll = rng.UniformU32(100);
    std::ostringstream opdesc;

    if (routes.empty() || roll < 35) {  // Commit a fresh route
      routes.push_back(make_route());
      opdesc << "Commit route#" << routes.size() - 1;
      insert_route(routes.back());
    } else if (roll < 90) {  // Release -> replan -> accept or roll back
      const std::size_t pick =
          rng.UniformU32(static_cast<std::uint32_t>(routes.size()));
      // Destroy: release the route from every store, checking that each
      // removal succeeds everywhere it succeeds in the reference.
      for (const geometry::Segment& s : routes[pick]) {
        const bool ref_removed = reference.Remove(s);
        for (auto& st : stores) {
          const bool removed = st.store->Remove(s);
          if (removed != ref_removed) {
            std::ostringstream what;
            what << st.name << " Remove(" << s << ") returned " << removed
                 << ", reference returned " << ref_removed;
            return fail(round, what.str());
          }
        }
      }
      // Repair: half the time the joint replan "fails" (the blocked
      // corridor of the ISSUE 8 scenario) and the rollback recommits the
      // original segments bit-identically; otherwise the repair is
      // accepted and replacement segments commit instead.
      if (rng.UniformU32(2) == 0) {
        opdesc << "Release+rollback route#" << pick;
        insert_route(routes[pick]);
      } else {
        opdesc << "Release+replace route#" << pick;
        routes[pick] = make_route();
        insert_route(routes[pick]);
      }
    } else {  // PruneBefore, retiring whole routes the cutoff passed
      const TimeStep t = rng.UniformInt(0, opt.time_horizon + opt.max_duration);
      opdesc << "PruneBefore " << t;
      const std::size_t ref_dropped = reference.PruneBefore(t);
      for (auto& st : stores) {
        const std::size_t dropped = st.store->PruneBefore(t);
        if (dropped != ref_dropped) {
          std::ostringstream what;
          what << st.name << " PruneBefore(" << t << ") dropped " << dropped
               << ", reference dropped " << ref_dropped;
          return fail(round, what.str());
        }
      }
      for (auto& route : routes) {
        std::erase_if(route, [t](const geometry::Segment& s) {
          return s.finish().t < t;
        });
      }
      std::erase_if(routes,
                    [](const auto& route) { return route.empty(); });
    }
    log.Note(opdesc.str());

    // ---- After-every-round audit: a rolled-back repair must be a true
    // no-op, so content, size and invariants must match the reference.
    const std::vector<PackedSegment> ref_live = LiveMultiset(reference);
    for (const auto& st : stores) {
      if (st.store->size() != reference.size()) {
        std::ostringstream what;
        what << st.name << " size " << st.store->size() << ", reference "
             << reference.size();
        return fail(round, what.str());
      }
      if (std::string err = st.store->CheckInvariants(); !err.empty()) {
        return fail(round, st.name + " invariant: " + err);
      }
      if (LiveMultiset(*st.store) != ref_live) {
        std::ostringstream what;
        what << st.name << " live multiset diverged from reference (sizes "
             << st.store->size() << " vs " << reference.size() << ")";
        return fail(round, what.str());
      }
    }
  }
  return result;
}

}  // namespace

StoreFuzzResult FuzzLifecycleRollback(const LifecycleFuzzOptions& opt,
                                      bool inject_lost_rollback) {
  StoreFuzzResult total;
  for (int i = 0; i < opt.num_seeds; ++i) {
    StoreFuzzResult one = FuzzLifecycleRollbackOneSeed(
        opt.seed + static_cast<std::uint64_t>(i), opt, inject_lost_rollback);
    total.ops_executed += one.ops_executed;
    if (!one.ok) {
      total.ok = false;
      total.failing_seed = one.failing_seed;
      total.error = std::move(one.error);
      return total;
    }
  }
  return total;
}

}  // namespace carp::check
