// A forwarding core::Planner that times every call into the planner it
// wraps, from outside. The simulator and the service drive it exactly as
// they would drive the wrapped planner: every virtual is forwarded, and the
// non-virtual parts of the interface are kept consistent (the route log
// mirrors the wrapped planner's commits, releases and prunes; the
// speculation counters PlanBatch records through NoteSpeculation are
// overlaid onto the wrapped planner's stats).
//
// Untraced (null SpanLog) it records only per-PlanRoute latency and the
// time spent in ReleaseRoute/PruneBefore — what the end-to-end metrics
// need. Traced, it also records one span per PlanRoute, QueryRoute,
// CommitRoute(Sharded), ReleaseRoute and PruneBefore call, each carrying
// the PlannerStats delta of the call (the query context's counters for the
// concurrent QueryRoute). Stats snapshots are taken outside the call's
// span, under a "trace.snapshot" span, so their cost shows as tracing
// overhead, not as layer time.

#ifndef DAYBENCH_TRACED_PLANNER_H_
#define DAYBENCH_TRACED_PLANNER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/planner.h"
#include "span_log.h"

namespace daybench {

/// One PlanRoute call as the caller saw it: the query, its latency and the
/// route returned (nullopt = failed).
struct PlanCall {
  carp::TimeStep now = 0;
  carp::GridCoord origin;
  carp::GridCoord destination;
  std::int64_t ns = 0;
  std::optional<carp::core::Route> route;
};

class TracedPlanner final : public carp::core::Planner {
 public:
  using Route = carp::core::Route;
  using Stats = carp::core::PlannerStats;

  /// `layer` prefixes the span names ("srp" -> "srp.plan", ...).
  TracedPlanner(carp::core::Planner& inner, const std::string& layer,
                SpanLog* log)
      : inner_(inner),
        log_(log),
        plan_span_(layer + ".plan"),
        release_span_(layer + ".release"),
        prune_span_(layer + ".prune") {}

  std::optional<Route> PlanRoute(carp::TimeStep now, carp::GridCoord origin,
                                 carp::GridCoord destination) override {
    const auto request = static_cast<std::int64_t>(calls_.size());
    Stats before;
    if (log_ != nullptr) before = Snapshot();
    const std::int32_t id =
        log_ != nullptr ? log_->Open(plan_span_, RequestOf(origin, destination,
                                                           request))
                        : -1;
    const std::int64_t t0 = NowNs();
    std::optional<Route> route = inner_.PlanRoute(now, origin, destination);
    const std::int64_t ns = NowNs() - t0;
    if (log_ != nullptr) {
      log_->Close(id);
      log_->AttachStats(id, before, Snapshot());
    }
    if (route.has_value()) route_log_.push_back(*route);
    calls_.push_back(PlanCall{now, origin, destination, ns, route});
    return route;
  }

  bool ReleaseRoute(const Route& route) override {
    const std::int32_t id = log_ != nullptr ? log_->Open(release_span_) : -1;
    const std::int64_t t0 = NowNs();
    const bool released = inner_.ReleaseRoute(route);
    lifecycle_ns_ += NowNs() - t0;
    if (log_ != nullptr) log_->Close(id);
    if (released) EraseFromLog(route);
    return released;
  }

  std::size_t PruneBefore(carp::TimeStep t) override {
    const std::int32_t id = log_ != nullptr ? log_->Open(prune_span_) : -1;
    const std::int64_t t0 = NowNs();
    const std::size_t dropped = inner_.PruneBefore(t);
    lifecycle_ns_ += NowNs() - t0;
    if (log_ != nullptr) log_->Close(id);
    PruneLog(t);
    return dropped;
  }

  bool SupportsSpeculation() const override {
    return inner_.SupportsSpeculation();
  }
  std::unique_ptr<QueryContext> MakeQueryContext() const override {
    return inner_.MakeQueryContext();
  }
  std::optional<Route> QueryRoute(QueryContext& context, carp::TimeStep now,
                                  carp::GridCoord origin,
                                  carp::GridCoord destination) const override {
    if (log_ == nullptr) {
      return inner_.QueryRoute(context, now, origin, destination);
    }
    const Stats before = context.stats;
    const std::int32_t id =
        log_->Open(plan_span_, RequestOf(origin, destination, -1));
    std::optional<Route> route =
        inner_.QueryRoute(context, now, origin, destination);
    log_->Close(id);
    log_->AttachStats(id, before, context.stats);
    return route;
  }
  void AbsorbQueryContext(QueryContext& context) override {
    inner_.AbsorbQueryContext(context);
  }

  void CommitRoute(const Route& route) override {
    ScopedSpan span(log_, kCommitSpan);
    inner_.CommitRoute(route);
    route_log_.push_back(route);
  }
  bool SupportsShardedCommit() const override {
    return inner_.SupportsShardedCommit();
  }
  std::size_t CommitShardCount() const override {
    return inner_.CommitShardCount();
  }
  void ComputeShardFootprint(const Route& route,
                             std::vector<std::uint32_t>& out) const override {
    inner_.ComputeShardFootprint(route, out);
  }
  std::uint64_t BeginShardedCommit(const Route& route) override {
    ScopedSpan span(log_, kCommitSpan);
    return inner_.BeginShardedCommit(route);
  }
  void CommitRouteSharded(const Route& route, std::uint64_t ticket) override {
    // Runs on pool workers: a worker span, not a ScopedSpan.
    const std::int32_t id = log_ != nullptr ? log_->Open(kCommitSpan) : -1;
    inner_.CommitRouteSharded(route, ticket);
    if (log_ != nullptr) log_->Close(id);
  }
  void NoteShardedCommitted(const Route& route,
                            std::uint64_t ticket) override {
    ScopedSpan span(log_, kCommitSpan);
    inner_.NoteShardedCommitted(route, ticket);
    route_log_.push_back(route);
  }
  void OnShardedFlush() override {
    ScopedSpan span(log_, kCommitSpan);
    inner_.OnShardedFlush();
  }
  bool SupportsExactRelease() const override {
    return inner_.SupportsExactRelease();
  }

  void PrefetchHeuristic(carp::GridCoord destination,
                         carp::ThreadPool* pool) const override {
    inner_.PrefetchHeuristic(destination, pool);
  }
  std::int64_t RouteCost(const Route& route) const override {
    return inner_.RouteCost(route);
  }
  std::uint64_t StateFingerprint() const override {
    return inner_.StateFingerprint();
  }
  std::string_view name() const override { return inner_.name(); }
  void Reset() override {
    inner_.Reset();
    route_log_.clear();
  }
  std::size_t RetainedBytes() const override { return inner_.RetainedBytes(); }

  /// The wrapped planner's stats plus the speculation counters PlanBatch
  /// recorded on this wrapper.
  const Stats& stats() const override {
    view_ = inner_.stats();
    view_.speculative_routes += stats_.speculative_routes;
    view_.speculative_invalidated += stats_.speculative_invalidated;
    return view_;
  }

  /// Names the requests of the wave about to be planned, so the spans of a
  /// request's query and any serial replan carry its request id.
  void SetWaveRequests(std::map<std::pair<carp::GridCoord, carp::GridCoord>,
                                std::int64_t>
                           requests) {
    wave_requests_ = std::move(requests);
  }

  const std::vector<PlanCall>& calls() const { return calls_; }
  double lifecycle_seconds() const {
    return static_cast<double>(lifecycle_ns_) * 1e-9;
  }

 private:
  static constexpr std::string_view kCommitSpan = "core.batch.commit";

  /// The wrapped planner's stats, under a span of its own: on SRP a
  /// snapshot walks every segment store, which is the tracing's own cost
  /// and must not show as the caller's self time.
  Stats Snapshot() const {
    ScopedSpan span(log_, "trace.snapshot");
    return inner_.stats();
  }

  std::int64_t RequestOf(carp::GridCoord origin, carp::GridCoord destination,
                         std::int64_t fallback) const {
    const auto it = wave_requests_.find({origin, destination});
    return it == wave_requests_.end() ? fallback : it->second;
  }

  carp::core::Planner& inner_;
  SpanLog* log_;
  const std::string plan_span_;
  const std::string release_span_;
  const std::string prune_span_;
  std::vector<PlanCall> calls_;
  std::int64_t lifecycle_ns_ = 0;
  std::map<std::pair<carp::GridCoord, carp::GridCoord>, std::int64_t>
      wave_requests_;
  mutable Stats view_;
};

}  // namespace daybench

#endif  // DAYBENCH_TRACED_PLANNER_H_
