#ifndef CARP_CORE_SEARCH_QUEUE_H_
#define CARP_CORE_SEARCH_QUEUE_H_

namespace carp::core {

/// The open list every search core runs (DESIGN.md §2j): a two-level dial
/// / bucket queue (core/bucket_queue.h) exploiting the searches' small
/// integer monotone keys. It is the only implementation; this label exists
/// so run records can name the open list that produced their numbers.
enum class SearchQueue : int {
  kBucket = 0,
  kAuto = 1,
};

/// Lower-case spelling ("bucket", "auto").
inline const char* ToString(SearchQueue queue) {
  return queue == SearchQueue::kAuto ? "auto" : "bucket";
}

/// The open list a search runs for `requested`: always the bucket dial.
/// Never returns kAuto.
inline SearchQueue ResolveSearchQueue(SearchQueue /*requested*/) {
  return SearchQueue::kBucket;
}

}  // namespace carp::core

#endif  // CARP_CORE_SEARCH_QUEUE_H_
