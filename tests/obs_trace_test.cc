// Tests for per-request tracing (src/obs/trace.h, src/obs/request_obs.h):
// span sequencing on the raw recorder, simulated-span accounting, the trace
// rings, and end-to-end span order and bounds through MatchService in CPU
// and device modes plus the tenant tag through TenantRouter.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/request_obs.h"
#include "obs/trace.h"
#include "service/match_service.h"
#include "tenant/tenant_router.h"
#include "tests/test_util.h"
#include "tests/trace_checks.h"

namespace fast {
namespace {

using obs::CompletedTrace;
using obs::MetricsRegistry;
using obs::RequestObs;
using obs::RequestTrace;
using obs::Span;
using obs::TraceRing;
using obs::TraceSpan;
using testing::PaperDataGraph;
using testing::PaperQuery;
using testing::ExpectWallSpans;
using testing::ExpectWallSpansOrdered;
using testing::WallSpans;

bool HasSpan(const CompletedTrace& trace, Span span, bool simulated) {
  return std::any_of(trace.spans.begin(), trace.spans.end(),
                     [&](const TraceSpan& s) {
                       return s.span == span && s.simulated == simulated;
                     });
}

TEST(RequestTraceTest, BeginAutoClosesAndSpansStayMonotonic) {
  RequestTrace trace;
  trace.Begin(Span::kAdmit);
  trace.Begin(Span::kQueue);  // closes admit
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  trace.End();
  trace.RecordSimulated(Span::kDma, 0.5);
  const CompletedTrace done = trace.Finish(7, true, "OK");

  EXPECT_EQ(done.request_id, 7u);
  EXPECT_TRUE(done.ok);
  EXPECT_EQ(done.status, "OK");
  ASSERT_EQ(done.spans.size(), 3u);
  EXPECT_EQ(done.spans[0].span, Span::kAdmit);
  EXPECT_EQ(done.spans[1].span, Span::kQueue);
  EXPECT_GT(done.spans[1].duration_seconds, 0.0);
  EXPECT_EQ(done.spans[2].span, Span::kDma);
  EXPECT_TRUE(done.spans[2].simulated);
  EXPECT_DOUBLE_EQ(done.spans[2].duration_seconds, 0.5);
  ExpectWallSpansOrdered(done);
}

TEST(RequestTraceTest, SimulatedSpansExcludedFromWallCoverage) {
  RequestTrace trace;
  trace.Begin(Span::kMatch);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  trace.RecordSimulated(Span::kKernel, 100.0);  // would dwarf the wall time
  const CompletedTrace done = trace.Finish(1, true, "OK");

  EXPECT_GT(done.total_seconds, 0.0);
  EXPECT_LT(done.WallSpanSeconds(), 1.0);  // the 100 simulated s don't count
  EXPECT_GT(done.Coverage(), 0.5);
  EXPECT_LE(done.Coverage(), 1.0 + 1e-9);
  EXPECT_DOUBLE_EQ(done.SpanSeconds(Span::kKernel), 100.0);
}

TEST(RequestTraceTest, FinishClosesOpenSpanAndSummaryNamesIt) {
  RequestTrace trace;
  trace.Begin(Span::kMatch);
  const CompletedTrace done = trace.Finish(2, false, "INTERNAL");
  ASSERT_EQ(done.spans.size(), 1u);
  EXPECT_EQ(done.spans[0].span, Span::kMatch);
  EXPECT_NE(done.Summary().find("match"), std::string::npos);
  EXPECT_FALSE(done.ok);
}

TEST(CompletedTraceTest, CoverageIsZeroWithoutTotal) {
  CompletedTrace trace;
  EXPECT_DOUBLE_EQ(trace.Coverage(), 0.0);
}

TEST(TraceRingTest, NewestEvictsOldest) {
  TraceRing ring(3);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    auto t = std::make_shared<CompletedTrace>();
    t->request_id = id;
    ring.Push(std::move(t));
  }
  const auto snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0]->request_id, 3u);
  EXPECT_EQ(snap[2]->request_id, 5u);
}

TEST(RequestObsTest, TracingDisabledYieldsNullTraces) {
  MetricsRegistry reg;
  RequestObs::Options opts;
  opts.metrics = &reg;
  opts.tracing = false;
  opts.trace_ring_capacity = 8;
  RequestObs obs(opts);
  EXPECT_EQ(obs.StartTrace(), nullptr);
  obs::TenantSlot& slot = obs.OpenTenant("");
  obs.OnSubmitted(slot);
  const auto frozen = obs.OnFinished(slot, RequestObs::Outcome::kCompleted,
                                     0.01, nullptr, 1, "OK");
  EXPECT_EQ(frozen, nullptr);
  EXPECT_TRUE(obs.recent_traces().empty());
  // Registry metrics still flow with tracing off.
  EXPECT_EQ(reg.GetCounter("fast_requests_total")->Value(), 1u);
  EXPECT_EQ(reg.GetCounter("fast_requests_completed_total")->Value(), 1u);
  EXPECT_EQ(reg.GetHistogram("fast_request_latency_seconds")->Snapshot().count(),
            1u);
}

TEST(RequestObsTest, SlowRequestsAreLoggedCountedAndRetained) {
  MetricsRegistry reg;
  RequestObs::Options opts;
  opts.metrics = &reg;
  opts.tracing = true;
  opts.slow_request_seconds = 1e-6;
  opts.trace_ring_capacity = 8;
  RequestObs obs(opts);
  auto trace = obs.StartTrace();
  ASSERT_NE(trace, nullptr);
  trace->Begin(Span::kMatch);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto frozen =
      obs.OnFinished(obs.OpenTenant(""), RequestObs::Outcome::kCompleted, 0.001,
                     std::move(trace), 9, "OK");
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ(obs.recent_traces().size(), 1u);
  ASSERT_EQ(obs.slow_traces().size(), 1u);
  EXPECT_EQ(obs.slow_traces()[0]->request_id, 9u);
  EXPECT_EQ(reg.GetCounter("fast_slow_requests_total")->Value(), 1u);
}

TEST(RequestObsTest, PopBlockedFeedsQueueCounters) {
  MetricsRegistry reg;
  RequestObs::Options opts;
  opts.metrics = &reg;
  opts.tracing = false;
  opts.trace_ring_capacity = 8;
  RequestObs obs(opts);
  obs.OnPopBlocked(100);
  obs.OnPopBlocked(250);
  EXPECT_EQ(reg.GetCounter("fast_queue_pops_blocked_total")->Value(), 2u);
  EXPECT_EQ(reg.GetCounter("fast_queue_pop_block_ns_total")->Value(), 350u);
  // Without a registry the call is a no-op.
  opts.metrics = nullptr;
  RequestObs bare(opts);
  bare.OnPopBlocked(100);
}

service::ServiceOptions TracedServiceOptions() {
  service::ServiceOptions options;
  options.num_workers = 2;
  options.plan_cache_capacity = 8;
  return options;
}

TEST(ServiceTraceTest, CpuModeSpansAreOrderedAndCoverLatency) {
  MetricsRegistry reg;
  service::ServiceOptions options = TracedServiceOptions();
  options.metrics = &reg;
  options.tracing = true;
  service::MatchService svc(PaperDataGraph(), options);
  const QueryGraph q = PaperQuery();

  auto result = svc.SubmitAndWait(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);
  const CompletedTrace& trace = *result->trace;

  EXPECT_EQ(WallSpans(trace).front().span, Span::kAdmit);
  ExpectWallSpans(trace, {Span::kAdmit, Span::kQueue, Span::kSnapshot,
                          Span::kPlanLookup, Span::kCstBuild, Span::kMatch,
                          Span::kRemap});
  EXPECT_FALSE(HasSpan(trace, Span::kDeviceWait, false));

  // The trace is shared with the recent ring and mirrored into the registry.
  ASSERT_EQ(svc.recent_traces().size(), 1u);
  EXPECT_EQ(svc.recent_traces()[0].get(), result->trace.get());
  EXPECT_EQ(reg.GetCounter("fast_requests_completed_total")->Value(), 1u);
  EXPECT_EQ(reg.GetHistogram("fast_span_match_seconds")->Snapshot().count(), 1u);
}

TEST(ServiceTraceTest, DeviceModeAddsDeviceSpansAndSimulatedModelTime) {
  MetricsRegistry reg;
  service::ServiceOptions options = TracedServiceOptions();
  options.metrics = &reg;
  options.tracing = true;
  options.device_mode = true;
  service::MatchService svc(PaperDataGraph(), options);

  auto result = svc.SubmitAndWait(PaperQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);
  const CompletedTrace& trace = *result->trace;

  ExpectWallSpans(trace, {Span::kAdmit, Span::kQueue, Span::kSnapshot,
                          Span::kPlanLookup, Span::kCstBuild,
                          Span::kDeviceWait, Span::kReassembly, Span::kRemap});
  EXPECT_FALSE(HasSpan(trace, Span::kMatch, false));
  EXPECT_TRUE(HasSpan(trace, Span::kDma, true));
  EXPECT_TRUE(HasSpan(trace, Span::kKernel, true));
}

TEST(ServiceTraceTest, TracingOffCarriesNoTraceButKeepsMetrics) {
  MetricsRegistry reg;
  service::ServiceOptions options = TracedServiceOptions();
  options.metrics = &reg;
  options.tracing = false;
  service::MatchService svc(PaperDataGraph(), options);

  auto result = svc.SubmitAndWait(PaperQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->trace, nullptr);
  EXPECT_TRUE(svc.recent_traces().empty());
  EXPECT_EQ(reg.GetCounter("fast_requests_completed_total")->Value(), 1u);
}

TEST(ServiceTraceTest, SlowQueryThresholdRetainsServiceTraces) {
  service::ServiceOptions options = TracedServiceOptions();
  options.tracing = true;
  options.slow_request_seconds = 1e-9;  // everything is "slow"
  service::MatchService svc(PaperDataGraph(), options);
  ASSERT_TRUE(svc.SubmitAndWait(PaperQuery()).ok());
  EXPECT_EQ(svc.slow_traces().size(), 1u);
}

TEST(RouterTraceTest, TracesCarryTheTenantId) {
  MetricsRegistry reg;
  tenant::RouterOptions options;
  options.num_workers = 2;
  options.metrics = &reg;
  options.tracing = true;
  tenant::TenantRouter router(options);
  ASSERT_TRUE(router.AddTenant("t1", PaperDataGraph()).ok());

  auto result = router.SubmitAndWait("t1", PaperQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);
  EXPECT_EQ(result->trace->tenant_id, "t1");
  ExpectWallSpansOrdered(*result->trace);
  EXPECT_TRUE(HasSpan(*result->trace, Span::kQueue, false));
  ASSERT_EQ(router.recent_traces().size(), 1u);
  EXPECT_EQ(router.recent_traces()[0]->tenant_id, "t1");
  EXPECT_EQ(reg.GetCounter("fast_requests_completed_total")->Value(), 1u);
}

}  // namespace
}  // namespace fast
