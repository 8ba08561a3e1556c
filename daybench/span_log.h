// In-memory span recorder of the traced benchmark run.
//
// A span is one call into a layer, timed from outside the layer: name (the
// layer key, e.g. "srp.plan"), start, end, parent span and request id.
// Spans opened on the driving thread nest through a stack; spans opened on
// pool workers (the service's query and sharded-commit phases) take the
// driving thread's current "ambient" span as parent, which the benchmark
// sets to the PlannerService::Step span it is inside. Planner-call spans also
// carry the PlannerStats snapshots around the call, so each span's counter
// delta is known. Spans stay in memory and are written out when the
// benchmark ends.

#ifndef DAYBENCH_SPAN_LOG_H_
#define DAYBENCH_SPAN_LOG_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/planner.h"

namespace daybench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t request = -1;
  bool worker = false;  // opened on a pool worker, not the driving thread
  bool has_stats = false;
  carp::core::PlannerStats before;
  carp::core::PlannerStats after;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class SpanLog {
 public:
  SpanLog() : main_thread_(std::this_thread::get_id()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Opens a span and returns its id. Thread-safe.
  std::int32_t Open(std::string_view name, std::int64_t request = -1) {
    const bool main = std::this_thread::get_id() == main_thread_;
    std::lock_guard<std::mutex> lock(mu_);
    const auto id = static_cast<std::int32_t>(spans_.size());
    Span& s = spans_.emplace_back();
    s.name = name;
    s.request = request;
    if (main) {
      s.parent = stack_.empty() ? -1 : stack_.back();
      stack_.push_back(id);
    } else {
      s.parent = ambient_;
      s.worker = true;
    }
    s.start_ns = NowNs();
    return id;
  }

  /// Closes span `id`. Thread-safe; driving-thread spans close in LIFO order.
  void Close(std::int32_t id) {
    const std::int64_t end = NowNs();
    const bool main = std::this_thread::get_id() == main_thread_;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = end;
    if (main && !stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Attaches the PlannerStats snapshots taken around a closed span's call.
  void AttachStats(std::int32_t id, const carp::core::PlannerStats& before,
                   const carp::core::PlannerStats& after) {
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.has_stats = true;
    s.before = before;
    s.after = after;
  }

  /// Parent of spans opened on worker threads from now on (-1 = none).
  void SetAmbient(std::int32_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    ambient_ = id;
  }

  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out = std::move(spans_);
    spans_.clear();
    stack_.clear();
    ambient_ = -1;
    return out;
  }

 private:
  const std::thread::id main_thread_;
  std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;  // driving-thread open spans
  std::int32_t ambient_ = -1;
};

/// RAII span on the driving thread; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string_view name, bool ambient = false)
      : log_(log), ambient_(ambient) {
    if (log_ == nullptr) return;
    id_ = log_->Open(name);
    if (ambient_) log_->SetAmbient(id_);
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    if (ambient_) log_->SetAmbient(-1);
    log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  bool ambient_;
  std::int32_t id_ = -1;
};

/// Self time per span name, in seconds. Over every instant of the spans'
/// extent, the spans that are open and have no open child share the
/// instant equally; so on one thread a span's self time is its duration
/// minus the time its children cover, and with concurrent children the
/// wall time is split among them. The self times sum to the union of all
/// span intervals.
inline std::map<std::string, double> SelfSeconds(
    const std::vector<Span>& spans) {
  struct Edge {
    std::int64_t t;
    bool open;
    std::int32_t id;
  };
  std::vector<Edge> edges;
  edges.reserve(spans.size() * 2);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    edges.push_back({spans[i].start_ns, true, id});
    edges.push_back({spans[i].end_ns, false, id});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.open < b.open;  // close before open at equal times
  });
  std::vector<std::int32_t> open_children(spans.size(), 0);
  std::vector<std::int32_t> active;
  std::vector<double> self(spans.size(), 0.0);
  std::int64_t prev = edges.empty() ? 0 : edges.front().t;
  for (const Edge& e : edges) {
    if (e.t > prev && !active.empty()) {
      std::size_t leaves = 0;
      for (const std::int32_t a : active) {
        if (open_children[static_cast<std::size_t>(a)] == 0) ++leaves;
      }
      const double share =
          static_cast<double>(e.t - prev) * 1e-9 / static_cast<double>(leaves);
      for (const std::int32_t a : active) {
        if (open_children[static_cast<std::size_t>(a)] == 0) {
          self[static_cast<std::size_t>(a)] += share;
        }
      }
    }
    prev = e.t;
    const std::int32_t parent = spans[static_cast<std::size_t>(e.id)].parent;
    if (e.open) {
      active.push_back(e.id);
      if (parent >= 0) ++open_children[static_cast<std::size_t>(parent)];
    } else {
      active.erase(std::find(active.begin(), active.end(), e.id));
      if (parent >= 0) --open_children[static_cast<std::size_t>(parent)];
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name] += self[i];
  }
  return by_name;
}

/// Writes spans as JSON lines: name, start/end (ns since the first span),
/// parent, request, and the fallback/expansion deltas of planner calls.
inline void WriteSpans(const std::vector<Span>& spans, std::ostream& out) {
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns - t0
        << ",\"end_ns\":" << s.end_ns - t0 << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request;
    if (s.has_stats) {
      out << ",\"expanded\":"
          << s.after.expanded_nodes - s.before.expanded_nodes
          << ",\"fallbacks\":" << s.after.fallbacks - s.before.fallbacks
          << ",\"failures\":" << s.after.failures - s.before.failures
          << ",\"candidates\":"
          << s.after.candidates_examined - s.before.candidates_examined
          << ",\"heuristic_builds\":"
          << s.after.heuristic_misses - s.before.heuristic_misses;
    }
    out << "}\n";
  }
}

}  // namespace daybench

#endif  // DAYBENCH_SPAN_LOG_H_
