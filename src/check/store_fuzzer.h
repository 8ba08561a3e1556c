#ifndef CARP_CHECK_STORE_FUZZER_H_
#define CARP_CHECK_STORE_FUZZER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "srp/segment_store.h"

namespace carp::check {

/// One production store under differential test.
struct NamedStoreFactory {
  std::string name;
  std::function<std::unique_ptr<srp::SegmentStore>()> make;
};

/// The two production stores (Sec. V-B naive, Sec. V-D slope index).
std::vector<NamedStoreFactory> DefaultStoreFactories();

/// Shape of one fuzz run. Every quantity is derived deterministically from
/// `seed` via carp::Rng, so a failure reported for seed S replays exactly
/// with --seed=S (tools/fuzz_store).
struct StoreFuzzOptions {
  std::uint64_t seed = 1;       // first seed
  int num_seeds = 1;            // seeds [seed, seed + num_seeds)
  int ops_per_seed = 512;
  std::int64_t strip_length = 48;  // positions in [0, strip_length]
  std::int64_t time_horizon = 256;
  std::int64_t max_duration = 24;
};

struct StoreFuzzResult {
  bool ok = true;
  std::uint64_t failing_seed = 0;  // meaningful when !ok
  std::int64_t ops_executed = 0;   // total across all seeds run
  std::string error;               // divergence report incl. op log tail
};

/// Replays one deterministic op stream (Insert / Remove / PruneBefore /
/// EarliestCollisionTime / OccupiedAt) against every factory's store and a
/// ReferenceSegmentStore, asserting after every op: identical answers and
/// return values, identical sizes, identical live multisets, every store's
/// CheckInvariants() clean, and RetainedBytes bounded by the live+tombstone
/// population (memory cannot grow without bound). Stops at the first
/// divergence and reports the seed plus the tail of the op log.
StoreFuzzResult FuzzOneSeed(std::uint64_t seed, const StoreFuzzOptions& opt,
                            const std::vector<NamedStoreFactory>& factories);

/// FuzzOneSeed over seeds [opt.seed, opt.seed + opt.num_seeds); stops at
/// the first failing seed.
StoreFuzzResult FuzzStores(const StoreFuzzOptions& opt,
                           const std::vector<NamedStoreFactory>& factories);

/// Shape of one lifecycle-rollback fuzz run (DESIGN.md §2i): routes of
/// `segments_per_route` random segments are committed, then repeatedly
/// released, speculatively "replanned", and either replaced (accepted
/// repair) or rolled back by reinserting the original segments — the LNS
/// refiner's release -> replan -> rollback cycle at store granularity.
struct LifecycleFuzzOptions {
  std::uint64_t seed = 1;
  int num_seeds = 1;
  int rounds_per_seed = 96;
  int segments_per_route = 4;
  std::int64_t strip_length = 48;
  std::int64_t time_horizon = 256;
  std::int64_t max_duration = 24;
};

/// Drives the production stores (and a ReferenceSegmentStore oracle)
/// through the release/replan/rollback interleaving, auditing identical
/// live multisets, sizes and clean CheckInvariants after every round — a
/// rolled-back repair must leave the store bit-identical to never having
/// been touched. With `inject_lost_rollback` the stream instead runs
/// against a FaultySegmentStore(kLostRollback), whose dropped recommits
/// the audit must flag within the seed budget; a clean run must stay green
/// for the whole budget.
StoreFuzzResult FuzzLifecycleRollback(const LifecycleFuzzOptions& opt,
                                      bool inject_lost_rollback);

}  // namespace carp::check

#endif  // CARP_CHECK_STORE_FUZZER_H_
