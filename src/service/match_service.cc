#include "service/match_service.h"

#include <cstdio>
#include <utility>

#include "util/logging.h"

namespace fast::service {

namespace {

tenant::RouterOptions PoolOptions(const ServiceOptions& options) {
  tenant::RouterOptions pool;
  static_cast<CommonServingOptions&>(pool) = options;
  return pool;
}

// The one tenant: the graph's plan-cache budget, no quota beyond the global
// queue bound, weight 1.
tenant::TenantOptions GraphOptions(const ServiceOptions& options) {
  tenant::TenantOptions graph;
  static_cast<PlanCacheOptions&>(graph) = options;
  return graph;
}

}  // namespace

std::string ServiceStats::Summary() const {
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "qps=%.1f completed=%llu failed=%llu rejected(queue=%llu "
                "deadline=%llu) cancelled_midrun=%llu epoch=%llu swaps=%llu "
                "cache(hit_rate=%.1f%% entries=%zu) latency[%s]",
                QueriesPerSecond(), static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(rejected_queue_full),
                static_cast<unsigned long long>(rejected_deadline),
                static_cast<unsigned long long>(cancelled_midrun),
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(graph_swaps),
                cache.HitRate() * 100.0, cache.entries,
                latency.Summary().c_str());
  return buf;
}

MatchService::MatchService(Graph graph, ServiceOptions options)
    : router_(PoolOptions(options)) {
  FAST_CHECK_OK(
      router_.AddTenant(SessionKey(), std::move(graph), GraphOptions(options)));
}

// The tenant is never removed, so the per-tenant lookups below cannot miss.

StatusOr<MatchService::RequestId> MatchService::Submit(const SessionKey&,
                                                       const QueryGraph& q,
                                                       RequestOptions opts) {
  return router_.Submit(SessionKey(), q, std::move(opts));
}

std::uint64_t MatchService::SwapGraph(Graph next) {
  return router_.SwapGraph(SessionKey(), std::move(next)).value();
}

StatusOr<std::uint64_t> MatchService::ApplyDelta(const GraphDelta& delta) {
  return router_.ApplyDelta(SessionKey(), delta);
}

GraphSnapshot MatchService::snapshot() const {
  return router_.snapshot(SessionKey()).value();
}

ServiceStats MatchService::stats() const {
  tenant::RouterStats r = router_.stats();
  FAST_CHECK(r.tenants.size() == 1);
  const tenant::TenantStats& t = r.tenants.front();
  ServiceStats s;
  s.submitted = r.submitted;
  s.completed = r.completed;
  s.failed = r.failed;
  s.rejected_queue_full = r.rejected_queue_full;
  s.rejected_deadline = r.rejected_deadline;
  s.cancelled_midrun = r.cancelled_midrun;
  s.epoch = t.epoch;
  s.graph_swaps = t.graph_swaps;
  s.cache = t.cache;
  s.latency = std::move(r.latency);
  s.uptime_seconds = r.uptime_seconds;
  s.device_mode = r.device_mode;
  s.device = r.device;
  return s;
}

}  // namespace fast::service
