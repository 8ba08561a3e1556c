#ifndef CARP_CORE_SEARCH_ENGINE_H_
#define CARP_CORE_SEARCH_ENGINE_H_

#include <string>

namespace carp::core {

/// Which search engine answers space-time queries (DESIGN.md §2k).
/// Both engines return earliest-arrival routes over the same constraint
/// set, so their *costs* are always equal — but not their routes: the
/// interval engine places waits wherever the collapsed expansion lands
/// them, so route identity is deliberately not part of the contract.
///   * kAstar: the time-expanded (cell, t) A* oracle — one successor per
///     wait step (src/core/spacetime_astar.cc);
///   * kSipp:  the safe-interval engine — one (cell, free-interval) node
///     per contiguous free span, wait chains collapse into a single
///     interval expansion (src/core/sipp_astar.cc).
/// kAuto resolves at planner construction and currently keeps the
/// time-expanded oracle: routes stay bit-identical with every pre-engine
/// baseline, and the interval engine is the opt-in accelerator exercised
/// by --engine=sipp, CARP_FORCE_ENGINE, and a dedicated CI ctest pass.
/// Only the grid-based baselines take an engine; SRP's one space-time
/// search, its A* fallback, is always time-expanded.
enum class SearchEngine : int {
  kAstar = 0,
  kSipp = 1,
  kAuto = 2,
};

/// Lower-case flag spelling ("astar", "sipp", "auto").
const char* ToString(SearchEngine engine);

/// Parses the flag spelling; false (out untouched) on anything else.
bool ParseSearchEngine(const std::string& text, SearchEngine* out);

/// Maps a requested engine to the one a search should actually run:
///   * the CARP_FORCE_ENGINE environment variable, when set to a valid
///     spelling, overrides any request (the CI / A-B escape hatch);
///   * kAuto picks the time-expanded A* oracle.
/// Never returns kAuto. The first resolution in a process logs its choice
/// and why, so runs record which engine produced their numbers. Called at
/// planner construction, never on a query path.
SearchEngine ResolveSearchEngine(SearchEngine requested);

}  // namespace carp::core

#endif  // CARP_CORE_SEARCH_ENGINE_H_
