// Tests for the multi-graph tenancy subsystem (src/tenant/): routing to the
// right tenant graph, global admission + per-tenant quotas, weighted
// round-robin dispatch, runtime add/remove with drain, and — the headline
// concurrency test CI runs under TSan and ASan+UBSan — tenant isolation
// while a writer churns exactly one tenant's graph.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_delta.h"
#include "obs/metrics.h"
#include "tenant/tenant_router.h"
#include "tests/test_util.h"
#include "util/timer.h"

namespace fast {
namespace {

using tenant::RequestOptions;
using tenant::RouterOptions;
using tenant::TenantOptions;
using tenant::TenantRouter;
using testing::BruteForceCount;
using testing::PaperDataGraph;
using testing::PaperQuery;

RouterOptions SmallRouterOptions(std::size_t workers) {
  RouterOptions options;
  options.num_workers = workers;
  options.queue_capacity = 1024;
  return options;
}

// The A-B-C triangle query (labels of the paper graph).
QueryGraph TriangleQuery() {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(2);
  FAST_CHECK_OK(b.AddEdge(0, 1));
  FAST_CHECK_OK(b.AddEdge(0, 2));
  FAST_CHECK_OK(b.AddEdge(1, 2));
  auto q = QueryGraph::Create(std::move(b).Build().value(), "triangle");
  FAST_CHECK(q.ok());
  return std::move(q).value();
}

// A delta that appends a fresh A-B-C-D block matching the paper query
// (labels A=0 B=1 C=2 D=3), adding embeddings without disturbing old ids.
GraphDelta AddPatternBlockDelta(std::size_t base_vertices) {
  const auto v = static_cast<VertexId>(base_vertices);
  GraphDelta delta;
  delta.add_vertices = {0, 1, 2, 3};  // A, B, C, D at ids v..v+3
  delta.add_edges = {{v, static_cast<VertexId>(v + 1), 0},
                     {v, static_cast<VertexId>(v + 2), 0},
                     {static_cast<VertexId>(v + 1), static_cast<VertexId>(v + 2), 0},
                     {static_cast<VertexId>(v + 1), static_cast<VertexId>(v + 3), 0},
                     {static_cast<VertexId>(v + 2), static_cast<VertexId>(v + 3), 0}};
  return delta;
}

// A graph with `n` extra A-B-C-D pattern blocks appended to the paper graph,
// so different tenants carry different data (and different counts).
Graph PaperGraphWithBlocks(int n) {
  Graph g = PaperDataGraph();
  for (int i = 0; i < n; ++i) {
    auto next = ApplyDelta(g, AddPatternBlockDelta(g.NumVertices()));
    FAST_CHECK(next.ok());
    g = std::move(next).value();
  }
  return g;
}

TEST(TenantRouterTest, RoutesQueriesToTheirTenantGraphs) {
  const Graph ga = PaperDataGraph();
  const Graph gb = PaperGraphWithBlocks(2);
  const QueryGraph q = PaperQuery();
  const std::uint64_t expect_a = BruteForceCount(q, ga);
  const std::uint64_t expect_b = BruteForceCount(q, gb);
  ASSERT_NE(expect_a, expect_b);  // the tenants are distinguishable

  TenantRouter router(SmallRouterOptions(2));
  ASSERT_TRUE(router.AddTenant("a", ga).ok());
  ASSERT_TRUE(router.AddTenant("b", gb).ok());
  EXPECT_EQ(router.tenant_ids(), (std::vector<std::string>{"a", "b"}));

  auto ra = router.SubmitAndWait("a", q);
  auto rb = router.SubmitAndWait("b", q);
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_TRUE(rb.ok()) << rb.status();
  EXPECT_EQ(ra->run.embeddings, expect_a);
  EXPECT_EQ(rb->run.embeddings, expect_b);
  EXPECT_EQ(ra->graph_epoch, 1u);
  EXPECT_EQ(rb->graph_epoch, 1u);

  const auto stats = router.stats();
  EXPECT_EQ(stats.num_tenants, 2u);
  EXPECT_EQ(stats.completed, 2u);
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].id, "a");
  EXPECT_EQ(stats.tenants[0].completed, 1u);
  EXPECT_EQ(stats.tenants[1].completed, 1u);
}

TEST(TenantRouterTest, UnknownAndDuplicateTenantsAreRejected) {
  TenantRouter router(SmallRouterOptions(1));
  ASSERT_TRUE(router.AddTenant("a", PaperDataGraph()).ok());
  EXPECT_EQ(router.AddTenant("a", PaperDataGraph()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router.Submit("nope", PaperQuery()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(router.SwapGraph("nope", PaperDataGraph()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(router.ApplyDelta("nope", GraphDelta{}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(router.RemoveTenant("nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(router.tenant_stats("nope").status().code(), StatusCode::kNotFound);
}

TEST(TenantRouterTest, AddAndRemoveTenantsAtRuntime) {
  TenantRouter router(SmallRouterOptions(2));
  ASSERT_TRUE(router.AddTenant("a", PaperDataGraph()).ok());
  ASSERT_TRUE(router.SubmitAndWait("a", PaperQuery()).ok());

  // A tenant added mid-flight serves immediately.
  ASSERT_TRUE(router.AddTenant("b", PaperGraphWithBlocks(1)).ok());
  auto rb = router.SubmitAndWait("b", PaperQuery());
  ASSERT_TRUE(rb.ok());

  // Removal closes admission; the id becomes reusable.
  ASSERT_TRUE(router.RemoveTenant("b").ok());
  EXPECT_EQ(router.Submit("b", PaperQuery()).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(router.AddTenant("b", PaperDataGraph()).ok());
  auto fresh = router.SubmitAndWait("b", PaperQuery());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->graph_epoch, 1u);  // a fresh tenant, fresh epoch line
}

TEST(TenantRouterTest, RemoveTenantDrainsInFlightOnCapturedSnapshot) {
  const Graph ga = PaperDataGraph();
  const std::uint64_t expect_a = BruteForceCount(PaperQuery(), ga);
  TenantRouter router(SmallRouterOptions(1));
  ASSERT_TRUE(router.AddTenant("a", ga).ok());
  ASSERT_TRUE(router.AddTenant("b", PaperDataGraph()).ok());

  // Park the single worker inside an "a" request.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  RequestOptions blocker_opts;
  blocker_opts.on_embedding = [&](std::span<const VertexId>) {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  auto blocker = router.Submit("a", PaperQuery(), blocker_opts);
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  // RemoveTenant must block until the in-flight request drains.
  std::atomic<bool> removed{false};
  std::thread remover([&] {
    EXPECT_TRUE(router.RemoveTenant("a").ok());
    removed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(removed.load());  // still draining

  release.store(true);
  remover.join();
  EXPECT_TRUE(removed.load());

  // The drained request completed normally on its captured snapshot.
  auto result = router.Wait(*blocker);
  ASSERT_TRUE(result->status.ok());
  EXPECT_EQ(result->graph_epoch, 1u);
  EXPECT_EQ(result->run.embeddings, expect_a);

  // Tenant "b" is untouched throughout.
  EXPECT_EQ(router.Submit("a", PaperQuery()).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(router.SubmitAndWait("b", PaperQuery()).ok());
}

TEST(TenantRouterTest, PerTenantQuotaRejectsWithoutStarvingOthers) {
  TenantRouter router(SmallRouterOptions(1));
  TenantOptions quota_opts;
  quota_opts.max_queued = 2;
  ASSERT_TRUE(router.AddTenant("a", PaperDataGraph(), quota_opts).ok());
  ASSERT_TRUE(router.AddTenant("b", PaperDataGraph()).ok());

  // Park the worker on "b" so "a" submissions stay queued.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  RequestOptions blocker_opts;
  blocker_opts.on_embedding = [&](std::span<const VertexId>) {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  auto blocker = router.Submit("b", PaperQuery(), blocker_opts);
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  std::vector<TenantRouter::RequestId> queued;
  for (int i = 0; i < 2; ++i) {
    auto id = router.Submit("a", PaperQuery());
    ASSERT_TRUE(id.ok()) << id.status();
    queued.push_back(*id);
  }
  // Quota of 2 reached: the third "a" submit rejects, "b" is unaffected.
  auto rejected = router.Submit("a", PaperQuery());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  auto ok_b = router.Submit("b", TriangleQuery());
  ASSERT_TRUE(ok_b.ok());

  release.store(true);
  EXPECT_TRUE(router.Wait(*blocker)->status.ok());
  for (auto id : queued) EXPECT_TRUE(router.Wait(id)->status.ok());
  EXPECT_TRUE(router.Wait(*ok_b)->status.ok());

  auto ts = router.tenant_stats("a");
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(ts->rejected_quota, 1u);
  EXPECT_EQ(ts->rejected_queue_full, 0u);
  EXPECT_EQ(router.stats().rejected_quota, 1u);
}

TEST(TenantRouterTest, GlobalQueueCapacityRejects) {
  obs::MetricsRegistry registry;
  RouterOptions options = SmallRouterOptions(1);
  options.queue_capacity = 2;
  options.metrics = &registry;
  TenantRouter router(options);
  ASSERT_TRUE(router.AddTenant("a", PaperDataGraph()).ok());
  ASSERT_TRUE(router.AddTenant("b", PaperDataGraph()).ok());

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  RequestOptions blocker_opts;
  blocker_opts.on_embedding = [&](std::span<const VertexId>) {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  auto blocker = router.Submit("a", PaperQuery(), blocker_opts);
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  // The dispatched blocker no longer occupies the queue: two more admits
  // fill the global bound, the third rejects whichever tenant it names.
  auto q1 = router.Submit("a", PaperQuery());
  auto q2 = router.Submit("b", PaperQuery());
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  auto rejected = router.Submit("b", TriangleQuery());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  // The full-queue check runs before canonicalization: a malformed query is
  // rejected for capacity, not validated.
  auto malformed = router.Submit("b", QueryGraph());
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kResourceExhausted);

  release.store(true);
  EXPECT_TRUE(router.Wait(*blocker)->status.ok());
  EXPECT_TRUE(router.Wait(*q1)->status.ok());
  EXPECT_TRUE(router.Wait(*q2)->status.ok());

  const auto stats = router.stats();
  EXPECT_EQ(stats.rejected_queue_full, 2u);
  auto tb = router.tenant_stats("b");
  ASSERT_TRUE(tb.ok());
  EXPECT_EQ(tb->rejected_queue_full, 2u);

  // An idle worker that then picks up a request charges its blocked wait to
  // the pop-blocked counters. The lone worker goes idle asynchronously after
  // its last delivery, so each retry first gives it a moment to get there.
  auto counter = [&](const char* name) -> std::uint64_t {
    for (const auto& c : registry.Snapshot().counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  for (int i = 0; i < 200 && counter("fast_queue_pops_blocked_total") == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(router.SubmitAndWait("a", PaperQuery()).ok());
  }
  EXPECT_GT(counter("fast_queue_pops_blocked_total"), 0u);
  EXPECT_GT(counter("fast_queue_pop_block_ns_total"), 0u);
}

// Submit checks shutdown and the tenant id before the queue bound: while the
// queue is full an unknown tenant is NOT_FOUND, after Shutdown every Submit
// is FAILED_PRECONDITION, and neither counts as a queue-full rejection.
TEST(TenantRouterTest, UnknownTenantAndShutdownAreNotCountedAsQueueFull) {
  RouterOptions options = SmallRouterOptions(1);
  options.queue_capacity = 1;
  TenantRouter router(options);
  ASSERT_TRUE(router.AddTenant("a", PaperDataGraph()).ok());

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  RequestOptions blocker_opts;
  blocker_opts.on_embedding = [&](std::span<const VertexId>) {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  auto blocker = router.Submit("a", PaperQuery(), blocker_opts);
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  auto queued = router.Submit("a", PaperQuery());
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(router.Submit("a", TriangleQuery()).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(router.Submit("nope", TriangleQuery()).status().code(),
            StatusCode::kNotFound);

  release.store(true);
  EXPECT_TRUE(router.Wait(*blocker)->status.ok());
  EXPECT_TRUE(router.Wait(*queued)->status.ok());
  router.Shutdown();
  EXPECT_EQ(router.Submit("a", PaperQuery()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(router.Submit("nope", PaperQuery()).status().code(),
            StatusCode::kFailedPrecondition);

  const auto stats = router.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  auto ta = router.tenant_stats("a");
  ASSERT_TRUE(ta.ok());
  EXPECT_EQ(ta->rejected_queue_full, 1u);
}

// Every outcome field summed over the tenant rows equals the router total
// (no tenant has been removed, so the rows cover every request).
void ExpectTenantRowsSumToTotals(const tenant::RouterStats& s) {
  tenant::RouterStats sum;
  for (const tenant::TenantStats& t : s.tenants) {
    sum.submitted += t.submitted;
    sum.completed += t.completed;
    sum.failed += t.failed;
    sum.rejected_queue_full += t.rejected_queue_full;
    sum.rejected_quota += t.rejected_quota;
    sum.rejected_deadline += t.rejected_deadline;
    sum.cancelled_midrun += t.cancelled_midrun;
    sum.latency.Merge(t.latency);
  }
  EXPECT_EQ(sum.submitted, s.submitted);
  EXPECT_EQ(sum.completed, s.completed);
  EXPECT_EQ(sum.failed, s.failed);
  EXPECT_EQ(sum.rejected_queue_full, s.rejected_queue_full);
  EXPECT_EQ(sum.rejected_quota, s.rejected_quota);
  EXPECT_EQ(sum.rejected_deadline, s.rejected_deadline);
  EXPECT_EQ(sum.cancelled_midrun, s.cancelled_midrun);
  EXPECT_EQ(sum.latency.count(), s.latency.count());
  EXPECT_EQ(s.latency.count(), s.completed);
}

// Each finished request is charged to its tenant's account exactly once:
// the account's request count is the sum of the finish outcomes, and its
// errors are the finished requests that did not complete OK.
void ExpectAccountsMatchTenantOutcomes(const TenantRouter& router,
                                       const tenant::RouterStats& s) {
  for (const obs::AccountSnapshot& a : router.request_obs()->accounts().Snapshot()) {
    const auto t = std::find_if(
        s.tenants.begin(), s.tenants.end(),
        [&](const tenant::TenantStats& ts) { return ts.id == a.tenant; });
    ASSERT_NE(t, s.tenants.end()) << a.tenant;
    EXPECT_EQ(a.requests, t->completed + t->failed + t->rejected_deadline +
                              t->cancelled_midrun)
        << a.tenant;
    EXPECT_EQ(a.errors, a.requests - t->completed) << a.tenant;
  }
}

// Each account row counts a finished request once, whatever the moment of
// the read: requests is the sum of the finish outcomes, errors the finished
// requests that did not complete OK.
void ExpectAccountRowsAddUp(const TenantRouter& router) {
  for (const obs::AccountSnapshot& a : router.request_obs()->accounts().Snapshot()) {
    EXPECT_EQ(a.requests, a.completed + a.failed + a.rejected_deadline +
                              a.cancelled_midrun)
        << a.tenant;
    EXPECT_EQ(a.errors, a.requests - a.completed) << a.tenant;
    EXPECT_EQ(a.latency.count(), a.completed) << a.tenant;
  }
}

TEST(TenantRouterTest, TenantRowsSumToRouterTotals) {
  RouterOptions options = SmallRouterOptions(1);
  options.queue_capacity = 3;
  TenantRouter router(options);
  TenantOptions quota1;
  quota1.max_queued = 1;
  ASSERT_TRUE(router.AddTenant("a", PaperDataGraph(), quota1).ok());
  ASSERT_TRUE(router.AddTenant("b", PaperDataGraph()).ok());

  // Park the single worker on "a" so the submissions below stay queued.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  RequestOptions blocker_opts;
  blocker_opts.on_embedding = [&](std::span<const VertexId>) {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  auto blocker = router.Submit("a", PaperQuery(), blocker_opts);
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  auto a_queued = router.Submit("a", PaperQuery());
  ASSERT_TRUE(a_queued.ok());
  // "a" holds its quota of one queued request.
  EXPECT_EQ(router.Submit("a", PaperQuery()).status().code(),
            StatusCode::kResourceExhausted);
  RequestOptions short_deadline;
  short_deadline.deadline_seconds = 1e-3;
  auto b_expiring = router.Submit("b", PaperQuery(), short_deadline);
  ASSERT_TRUE(b_expiring.ok());
  const Timer since_expiring;  // started after the request's own clock
  auto b_queued = router.Submit("b", TriangleQuery());
  ASSERT_TRUE(b_queued.ok());
  // Three queued: the global bound rejects the next "b".
  EXPECT_EQ(router.Submit("b", PaperQuery()).status().code(),
            StatusCode::kResourceExhausted);
  while (since_expiring.ElapsedSeconds() <= short_deadline.deadline_seconds) {
    std::this_thread::yield();
  }

  release.store(true);
  EXPECT_TRUE(router.Wait(*blocker)->status.ok());
  EXPECT_TRUE(router.Wait(*a_queued)->status.ok());
  EXPECT_EQ(router.Wait(*b_expiring)->status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(router.Wait(*b_queued)->status.ok());

  const tenant::RouterStats s = router.stats();
  ASSERT_EQ(s.tenants.size(), 2u);
  const tenant::TenantStats& a = s.tenants[0];
  const tenant::TenantStats& b = s.tenants[1];
  EXPECT_EQ(a.submitted, 2u);
  EXPECT_EQ(a.completed, 2u);
  EXPECT_EQ(a.rejected_quota, 1u);
  EXPECT_EQ(a.rejected_queue_full, 0u);
  EXPECT_EQ(b.submitted, 2u);
  EXPECT_EQ(b.completed, 1u);
  EXPECT_EQ(b.rejected_deadline, 1u);
  EXPECT_EQ(b.rejected_queue_full, 1u);
  EXPECT_EQ(b.rejected_quota, 0u);
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.completed, 3u);
  ExpectTenantRowsSumToTotals(s);
  ExpectAccountsMatchTenantOutcomes(router, s);
  ExpectAccountRowsAddUp(router);
}

// The same identity read while traffic runs: every stats() snapshot is
// exact, not just the quiescent one.
TEST(TenantRouterTest, TenantRowsSumToRouterTotalsUnderTraffic) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 40;
  RouterOptions options = SmallRouterOptions(2);
  options.queue_capacity = 4;
  TenantRouter router(options);
  TenantOptions quota2;
  quota2.max_queued = 2;
  ASSERT_TRUE(router.AddTenant("a", PaperDataGraph(), quota2).ok());
  ASSERT_TRUE(router.AddTenant("b", PaperDataGraph()).ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> reading{false};
  std::atomic<int> snapshots{0};
  std::thread reader([&] {
    do {
      reading.store(true);
      ExpectTenantRowsSumToTotals(router.stats());
      ExpectAccountRowsAddUp(router);
      snapshots.fetch_add(1);
    } while (!stop.load());
  });
  // The clients start once the first read has begun, so reads overlap the
  // traffic however the threads are scheduled.
  while (!reading.load()) std::this_thread::yield();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&router, c] {
      std::vector<TenantRouter::RequestId> ids;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        RequestOptions opts;
        if (i % 3 == 0) opts.deadline_seconds = 1e-5;
        auto id = router.Submit(c % 2 == 0 ? "a" : "b", PaperQuery(), opts);
        if (id.ok()) ids.push_back(*id);
      }
      for (auto id : ids) EXPECT_TRUE(router.Wait(id).ok());
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  reader.join();
  EXPECT_GT(snapshots.load(), 0);

  const tenant::RouterStats s = router.stats();
  EXPECT_EQ(s.submitted + s.rejected_queue_full + s.rejected_quota,
            static_cast<std::uint64_t>(kClients) * kRequestsPerClient);
  ExpectTenantRowsSumToTotals(s);
  ExpectAccountsMatchTenantOutcomes(router, s);
  ExpectAccountRowsAddUp(router);
}

// A removed tenant's requests stay in the router totals.
TEST(TenantRouterTest, RemovedTenantStaysInRouterTotals) {
  TenantRouter router(SmallRouterOptions(2));
  ASSERT_TRUE(router.AddTenant("a", PaperDataGraph()).ok());
  ASSERT_TRUE(router.AddTenant("b", PaperDataGraph()).ok());
  ASSERT_TRUE(router.SubmitAndWait("a", PaperQuery()).ok());
  ASSERT_TRUE(router.SubmitAndWait("b", PaperQuery()).ok());
  ASSERT_TRUE(router.SubmitAndWait("b", TriangleQuery()).ok());
  ASSERT_TRUE(router.RemoveTenant("b").ok());

  const tenant::RouterStats s = router.stats();
  EXPECT_EQ(s.num_tenants, 1u);
  ASSERT_EQ(s.tenants.size(), 1u);
  EXPECT_EQ(s.tenants[0].id, "a");
  EXPECT_EQ(s.tenants[0].completed, 1u);
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.latency.count(), 3u);
}

// SLO objectives that make every completed request GOOD and every deadline
// rejection BAD, with windows wide enough that a test's records all count:
// burn == 2 * bad / total, and a tenant breaches at half its requests bad.
obs::SloOptions CountingSloOptions() {
  obs::SloOptions slo;
  slo.latency_objective_seconds = 3600.0;
  slo.target = 0.5;
  slo.short_window_seconds = 3600.0;
  slo.long_window_seconds = 7200.0;
  slo.breach_burn_rate = 1.0;
  return slo;
}

// Counters are kept per tenant id for the router's lifetime: a removed id
// re-added later continues its counts instead of restarting at zero — inline
// and in device mode, where the re-added tenant gets a fresh device queue
// and its requests still match correctly.
TEST(TenantRouterTest, ReAddedTenantContinuesItsCounters) {
  const Graph g = PaperDataGraph();
  const std::uint64_t expect_paper = BruteForceCount(PaperQuery(), g);
  const std::uint64_t expect_triangle = BruteForceCount(TriangleQuery(), g);
  for (const bool device_mode : {false, true}) {
    SCOPED_TRACE(device_mode ? "device" : "inline");
    RouterOptions options = SmallRouterOptions(2);
    options.device_mode = device_mode;
    TenantRouter router(options);
    ASSERT_TRUE(router.AddTenant("b", g).ok());
    auto r1 = router.SubmitAndWait("b", PaperQuery());
    auto r2 = router.SubmitAndWait("b", TriangleQuery());
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r1->run.embeddings, expect_paper);
    EXPECT_EQ(r2->run.embeddings, expect_triangle);
    ASSERT_TRUE(router.RemoveTenant("b").ok());

    ASSERT_TRUE(router.AddTenant("b", g).ok());
    auto r3 = router.SubmitAndWait("b", PaperQuery());
    ASSERT_TRUE(r3.ok());
    EXPECT_EQ(r3->run.embeddings, expect_paper);
    auto tb = router.tenant_stats("b");
    ASSERT_TRUE(tb.ok());
    EXPECT_EQ(tb->submitted, 3u);
    EXPECT_EQ(tb->completed, 3u);
    EXPECT_EQ(tb->latency.count(), 3u);
    EXPECT_EQ(tb->epoch, 1u);  // the graph state itself is fresh
    const tenant::RouterStats s = router.stats();
    EXPECT_EQ(s.completed, 3u);
    ExpectTenantRowsSumToTotals(s);
    EXPECT_EQ(s.device.queries, device_mode ? 3u : 0u);
  }

  // With SLO on, the re-added tenant's windows continue too. Every deadline
  // rejection is bad and every completion good, and a tenant is in breach
  // while at least half its requests are bad (CountingSloOptions).
  RouterOptions options = SmallRouterOptions(1);
  options.slo = CountingSloOptions();
  TenantRouter router(options);
  RequestOptions expired;
  expired.deadline_seconds = 1e-9;  // passes before any dispatch
  const auto bad = [&] {
    EXPECT_EQ(router.SubmitAndWait("b", PaperQuery(), expired).status().code(),
              StatusCode::kDeadlineExceeded);
  };
  const auto good = [&] {
    EXPECT_TRUE(router.SubmitAndWait("b", PaperQuery()).ok());
  };
  const auto state = [&] {
    for (const obs::SloTenantState& st :
         router.request_obs()->slo()->StateSnapshot(
             router.request_obs()->uptime_seconds())) {
      if (st.tenant == "b") return st;
    }
    return obs::SloTenantState{};
  };
  ASSERT_TRUE(router.AddTenant("b", g).ok());
  bad();   // 1 bad of 1: breach
  good();  // 1 of 2: still in breach
  good();  // 1 of 3: recovered
  EXPECT_EQ(state().breaches, 1u);
  EXPECT_EQ(state().recoveries, 1u);
  ASSERT_TRUE(router.RemoveTenant("b").ok());

  ASSERT_TRUE(router.AddTenant("b", g).ok());
  bad();   // 2 of 4: a second breach (a fresh window would make it 1 of 1)
  good();  // 2 of 5: recovered again
  const obs::SloTenantState b = state();
  EXPECT_EQ(b.long_total, 5u);
  EXPECT_EQ(b.long_bad, 2u);
  EXPECT_FALSE(b.breached);
  EXPECT_EQ(b.breaches, 2u);
  EXPECT_EQ(b.recoveries, 2u);
  EXPECT_EQ(router.request_obs()->slo()->total_breaches(), 2u);
}

// The account rows minus their wall-clock fields (cpu_ns, queue_wait_ns,
// latency values), one line per row.
std::string DeterministicAccountRows(
    const std::vector<obs::AccountSnapshot>& rows) {
  std::string out;
  for (const obs::AccountSnapshot& a : rows) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s submitted=%llu completed=%llu failed=%llu "
                  "rejected_queue_full=%llu rejected_quota=%llu "
                  "rejected_deadline=%llu cancelled_midrun=%llu latency_n=%llu "
                  "requests=%llu errors=%llu device_kernel_ns=%llu "
                  "dma_bytes=%llu plan_cache_bytes=%llu\n",
                  a.tenant.c_str(),
                  static_cast<unsigned long long>(a.submitted),
                  static_cast<unsigned long long>(a.completed),
                  static_cast<unsigned long long>(a.failed),
                  static_cast<unsigned long long>(a.rejected_queue_full),
                  static_cast<unsigned long long>(a.rejected_quota),
                  static_cast<unsigned long long>(a.rejected_deadline),
                  static_cast<unsigned long long>(a.cancelled_midrun),
                  static_cast<unsigned long long>(a.latency.count()),
                  static_cast<unsigned long long>(a.requests),
                  static_cast<unsigned long long>(a.errors),
                  static_cast<unsigned long long>(a.device_kernel_ns),
                  static_cast<unsigned long long>(a.dma_bytes),
                  static_cast<unsigned long long>(a.plan_cache_bytes));
    out += buf;
  }
  return out;
}

// The Prometheus account text with the values of the two wall-clock
// families replaced by "*".
std::string MaskWallClockFamilies(const std::string& text) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    if (line.rfind("fast_tenant_cpu_ns_total{", 0) == 0 ||
        line.rfind("fast_tenant_queue_wait_ns_total{", 0) == 0) {
      line = line.substr(0, line.rfind(' ') + 1) + "*";
    }
    out += line + "\n";
    pos = end + 1;
  }
  return out;
}

std::string SloStates(const std::vector<obs::SloTenantState>& states) {
  std::string out;
  for (const obs::SloTenantState& s : states) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s short=%.3f/%llu/%llu long=%.3f/%llu/%llu breached=%d "
                  "breaches=%llu recoveries=%llu\n",
                  s.tenant.c_str(), s.short_burn,
                  static_cast<unsigned long long>(s.short_total),
                  static_cast<unsigned long long>(s.short_bad), s.long_burn,
                  static_cast<unsigned long long>(s.long_total),
                  static_cast<unsigned long long>(s.long_bad),
                  s.breached ? 1 : 0,
                  static_cast<unsigned long long>(s.breaches),
                  static_cast<unsigned long long>(s.recoveries));
    out += buf;
  }
  return out;
}

// Golden admin output for a fixed two-tenant sequence: admit, quota reject,
// a deadline rejection, finish, then remove and re-add one id. Pins the
// account rows, the fast_tenant_* text and the SLO states (at an injected
// time inside every window), so a change to how a tenant's rows and windows
// are stored cannot change what the admin plane serves.
TEST(TenantRouterTest, AdminOutputIsPinnedAcrossRemoveAndReAdd) {
  RouterOptions options = SmallRouterOptions(1);
  options.slo = CountingSloOptions();
  TenantRouter router(options);
  TenantOptions quota1;
  quota1.max_queued = 1;
  ASSERT_TRUE(router.AddTenant("a", PaperDataGraph(), quota1).ok());
  ASSERT_TRUE(router.AddTenant("b", PaperDataGraph()).ok());

  // Park the single worker on "a" so the submissions below stay queued.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  RequestOptions blocker_opts;
  blocker_opts.on_embedding = [&](std::span<const VertexId>) {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  auto blocker = router.Submit("a", PaperQuery(), blocker_opts);
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  RequestOptions short_deadline;
  short_deadline.deadline_seconds = 1e-3;
  auto a_expiring = router.Submit("a", TriangleQuery(), short_deadline);
  ASSERT_TRUE(a_expiring.ok());
  const Timer since_admit;  // started after the request's own clock
  EXPECT_EQ(router.Submit("a", PaperQuery()).status().code(),
            StatusCode::kResourceExhausted);
  auto b_queued = router.Submit("b", TriangleQuery());
  ASSERT_TRUE(b_queued.ok());
  while (since_admit.ElapsedSeconds() <= short_deadline.deadline_seconds) {
    std::this_thread::yield();
  }
  release.store(true);
  EXPECT_TRUE(router.Wait(*blocker)->status.ok());
  EXPECT_EQ(router.Wait(*a_expiring)->status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(router.Wait(*b_queued)->status.ok());

  ASSERT_TRUE(router.RemoveTenant("b").ok());
  ASSERT_TRUE(router.AddTenant("b", PaperDataGraph()).ok());
  ASSERT_TRUE(router.SubmitAndWait("b", PaperQuery()).ok());

  const obs::RequestObs& ro = *router.request_obs();
  const std::vector<obs::AccountSnapshot> rows = ro.accounts().Snapshot();
  EXPECT_EQ(DeterministicAccountRows(rows),
            "a submitted=2 completed=1 failed=0 rejected_queue_full=0 "
            "rejected_quota=1 rejected_deadline=1 cancelled_midrun=0 "
            "latency_n=1 requests=2 errors=1 device_kernel_ns=394 "
            "dma_bytes=372 plan_cache_bytes=264\n"
            "b submitted=2 completed=2 failed=0 rejected_queue_full=0 "
            "rejected_quota=0 rejected_deadline=0 cancelled_midrun=0 "
            "latency_n=2 requests=2 errors=0 device_kernel_ns=735 "
            "dma_bytes=616 plan_cache_bytes=436\n");
  EXPECT_EQ(MaskWallClockFamilies(obs::AccountsToPrometheusText(rows)),
            "# HELP fast_tenant_requests_total Finished requests per tenant\n"
            "# TYPE fast_tenant_requests_total counter\n"
            "fast_tenant_requests_total{tenant=\"a\"} 2\n"
            "fast_tenant_requests_total{tenant=\"b\"} 2\n"
            "# HELP fast_tenant_errors_total Finished not-OK requests per tenant\n"
            "# TYPE fast_tenant_errors_total counter\n"
            "fast_tenant_errors_total{tenant=\"a\"} 1\n"
            "fast_tenant_errors_total{tenant=\"b\"} 0\n"
            "# HELP fast_tenant_cpu_ns_total Worker thread-CPU nanoseconds per tenant\n"
            "# TYPE fast_tenant_cpu_ns_total counter\n"
            "fast_tenant_cpu_ns_total{tenant=\"a\"} *\n"
            "fast_tenant_cpu_ns_total{tenant=\"b\"} *\n"
            "# HELP fast_tenant_device_kernel_ns_total Simulated device kernel nanoseconds per tenant\n"
            "# TYPE fast_tenant_device_kernel_ns_total counter\n"
            "fast_tenant_device_kernel_ns_total{tenant=\"a\"} 394\n"
            "fast_tenant_device_kernel_ns_total{tenant=\"b\"} 735\n"
            "# HELP fast_tenant_dma_bytes_total Simulated PCIe bytes per tenant\n"
            "# TYPE fast_tenant_dma_bytes_total counter\n"
            "fast_tenant_dma_bytes_total{tenant=\"a\"} 372\n"
            "fast_tenant_dma_bytes_total{tenant=\"b\"} 616\n"
            "# HELP fast_tenant_queue_wait_ns_total Submit->dispatch nanoseconds per tenant\n"
            "# TYPE fast_tenant_queue_wait_ns_total counter\n"
            "fast_tenant_queue_wait_ns_total{tenant=\"a\"} *\n"
            "fast_tenant_queue_wait_ns_total{tenant=\"b\"} *\n"
            "# HELP fast_tenant_plan_cache_bytes_total Compiled-plan partition bytes inserted per tenant\n"
            "# TYPE fast_tenant_plan_cache_bytes_total counter\n"
            "fast_tenant_plan_cache_bytes_total{tenant=\"a\"} 264\n"
            "fast_tenant_plan_cache_bytes_total{tenant=\"b\"} 436\n");
  ASSERT_NE(ro.slo(), nullptr);
  EXPECT_EQ(SloStates(ro.slo()->StateSnapshot(/*now_seconds=*/60.0)),
            "a short=1.000/2/1 long=1.000/2/1 breached=1 breaches=1 "
            "recoveries=0\n"
            "b short=0.000/2/0 long=0.000/2/0 breached=0 breaches=0 "
            "recoveries=0\n");
}

TEST(TenantRouterTest, WeightedRoundRobinHonorsWeights) {
  TenantRouter router(SmallRouterOptions(1));
  TenantOptions weight2;
  weight2.weight = 2;
  ASSERT_TRUE(router.AddTenant("a", PaperDataGraph(), weight2).ok());
  ASSERT_TRUE(router.AddTenant("b", PaperDataGraph()).ok());  // weight 1
  ASSERT_TRUE(router.AddTenant("blocker", PaperDataGraph()).ok());

  // Park the single worker on the throwaway tenant, then build backlogs for
  // "a" and "b" while nothing can dispatch.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  RequestOptions blocker_opts;
  blocker_opts.on_embedding = [&](std::span<const VertexId>) {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  auto blocker = router.Submit("blocker", PaperQuery(), blocker_opts);
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  // Record dispatch order via the first embedding of each request (the
  // single worker serializes dispatches).
  std::mutex order_mu;
  std::vector<std::string> dispatch_order;
  auto tagged = [&](const std::string& tag) {
    RequestOptions opts;
    auto fired = std::make_shared<std::atomic<bool>>(false);
    opts.on_embedding = [&, tag, fired](std::span<const VertexId>) {
      if (!fired->exchange(true)) {
        std::lock_guard<std::mutex> lock(order_mu);
        dispatch_order.push_back(tag);
      }
    };
    return opts;
  };
  std::vector<TenantRouter::RequestId> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = router.Submit("a", PaperQuery(), tagged("a"));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (int i = 0; i < 3; ++i) {
    auto id = router.Submit("b", PaperQuery(), tagged("b"));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  release.store(true);
  EXPECT_TRUE(router.Wait(*blocker)->status.ok());
  for (auto id : ids) EXPECT_TRUE(router.Wait(id)->status.ok());

  // Weight 2 vs 1: two "a" dispatches per "b" in every cycle.
  const std::vector<std::string> expected = {"a", "a", "b", "a", "a", "b",
                                             "a", "a", "b"};
  EXPECT_EQ(dispatch_order, expected);
}

TEST(TenantRouterTest, PerTenantSwapLeavesOtherTenantsUntouched) {
  const Graph base = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  TenantRouter router(SmallRouterOptions(2));
  ASSERT_TRUE(router.AddTenant("a", base).ok());
  ASSERT_TRUE(router.AddTenant("b", base).ok());

  // Warm both tenants' plan caches.
  ASSERT_TRUE(router.SubmitAndWait("a", q).ok());
  ASSERT_TRUE(router.SubmitAndWait("b", q).ok());

  const GraphDelta delta = AddPatternBlockDelta(base.NumVertices());
  auto expected_graph = ApplyDelta(base, delta);
  ASSERT_TRUE(expected_graph.ok());
  auto epoch = router.ApplyDelta("a", delta);
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  EXPECT_EQ(*epoch, 2u);

  auto ra = router.SubmitAndWait("a", q);
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(ra->graph_epoch, 2u);
  EXPECT_FALSE(ra->cache_hit);  // A's cache was invalidated by A's swap
  EXPECT_EQ(ra->run.embeddings, BruteForceCount(q, *expected_graph));

  // B still serves epoch 1, from its warm cache.
  auto rb = router.SubmitAndWait("b", q);
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb->graph_epoch, 1u);
  EXPECT_TRUE(rb->cache_hit);
  EXPECT_EQ(rb->run.embeddings, BruteForceCount(q, base));

  auto tb = router.tenant_stats("b");
  ASSERT_TRUE(tb.ok());
  EXPECT_EQ(tb->epoch, 1u);
  EXPECT_EQ(tb->graph_swaps, 0u);
  EXPECT_EQ(tb->cache.invalidations, 0u);
}

TEST(TenantRouterTest, ShutdownDrainsBacklogAndRejectsNewWork) {
  TenantRouter router(SmallRouterOptions(2));
  ASSERT_TRUE(router.AddTenant("a", PaperDataGraph()).ok());
  std::vector<TenantRouter::RequestId> ids;
  for (int i = 0; i < 20; ++i) {
    auto id = router.Submit("a", PaperQuery());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  router.Shutdown();
  for (auto id : ids) EXPECT_TRUE(router.Wait(id)->status.ok());
  EXPECT_EQ(router.Submit("a", PaperQuery()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(router.AddTenant("late", PaperDataGraph()).code(),
            StatusCode::kFailedPrecondition);
}

// The headline concurrency test (run under TSan and ASan in CI): clients
// hammer tenants A and B while a writer churns ONLY A's graph through a
// deterministic delta sequence. Isolation means every B result reports B's
// unchanged epoch 1 with B's unchanged count, and every A result matches
// the one graph A published under the epoch it reports.
TEST(TenantRouterTest, ConcurrentClientsStayIsolatedUnderSingleTenantChurn) {
  constexpr std::size_t kClientsPerTenant = 2;
  constexpr int kSwaps = 12;
  constexpr int kMinRequestsPerClient = 24;

  const Graph base = PaperDataGraph();
  const std::vector<QueryGraph> mix = {PaperQuery(), TriangleQuery()};

  // Precompute A's graph under each epoch 1..kSwaps+1 (the writer applies
  // the same delta sequence) and the expected count for every (query, epoch)
  // pair. Deltas alternate add-block / remove-block so counts change.
  std::vector<Graph> graphs;
  graphs.push_back(base);
  std::vector<GraphDelta> deltas;
  for (int i = 0; i < kSwaps; ++i) {
    const Graph& cur = graphs.back();
    GraphDelta d;
    if (i % 2 == 0) {
      d = AddPatternBlockDelta(cur.NumVertices());
    } else {
      for (int k = 0; k < 4; ++k) {
        d.remove_vertices.push_back(static_cast<VertexId>(cur.NumVertices() - 1 - k));
      }
    }
    auto next = ApplyDelta(cur, d);
    ASSERT_TRUE(next.ok()) << next.status();
    deltas.push_back(std::move(d));
    graphs.push_back(std::move(next).value());
  }
  // expected_a[shape][epoch - 1]; expected_b[shape] is fixed at epoch 1.
  std::vector<std::vector<std::uint64_t>> expected_a(mix.size());
  std::vector<std::uint64_t> expected_b;
  for (std::size_t s = 0; s < mix.size(); ++s) {
    for (const Graph& g : graphs) expected_a[s].push_back(BruteForceCount(mix[s], g));
    expected_b.push_back(BruteForceCount(mix[s], base));
  }

  TenantRouter router(SmallRouterOptions(4));
  ASSERT_TRUE(router.AddTenant("a", base).ok());
  ASSERT_TRUE(router.AddTenant("b", base).ok());

  std::atomic<bool> writer_done{false};
  std::atomic<int> warmed_up{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> bad_epochs{0};

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 2 * kClientsPerTenant; ++c) {
    const bool on_a = (c % 2 == 0);
    clients.emplace_back([&, c, on_a] {
      bool counted_warmup = false;
      // Run until kMinRequestsPerClient completed and at least one request
      // was submitted strictly after the writer finished (for A clients,
      // that request must capture the final epoch).
      bool post_done_request = false;
      int done = 0;
      while (done < kMinRequestsPerClient || !post_done_request) {
        const bool saw_writer_done = writer_done.load();
        const std::size_t s = (c + static_cast<std::size_t>(done)) % mix.size();
        auto r = router.SubmitAndWait(on_a ? "a" : "b", mix[s]);
        if (!r.ok()) {
          mismatches.fetch_add(1);
          break;
        }
        const std::uint64_t e = r->graph_epoch;
        if (on_a) {
          if (e < 1 || e > static_cast<std::uint64_t>(kSwaps) + 1) {
            bad_epochs.fetch_add(1);
          } else if (r->run.embeddings != expected_a[s][e - 1]) {
            mismatches.fetch_add(1);
          }
        } else {
          // The isolation property: B never observes A's churn.
          if (e != 1) {
            bad_epochs.fetch_add(1);
          } else if (r->run.embeddings != expected_b[s]) {
            mismatches.fetch_add(1);
          }
        }
        ++done;
        if (saw_writer_done) post_done_request = true;
        if (!counted_warmup) {
          counted_warmup = true;
          warmed_up.fetch_add(1);
        }
      }
    });
  }

  std::thread writer([&] {
    while (warmed_up.load() < static_cast<int>(2 * kClientsPerTenant)) {
      std::this_thread::yield();
    }
    for (const GraphDelta& d : deltas) {
      auto epoch = router.ApplyDelta("a", d);
      ASSERT_TRUE(epoch.ok()) << epoch.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writer_done.store(true);
  });

  writer.join();
  for (auto& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(bad_epochs.load(), 0);

  auto ta = router.tenant_stats("a");
  auto tb = router.tenant_stats("b");
  ASSERT_TRUE(ta.ok() && tb.ok());
  EXPECT_EQ(ta->epoch, static_cast<std::uint64_t>(kSwaps) + 1);
  EXPECT_EQ(ta->graph_swaps, static_cast<std::uint64_t>(kSwaps));
  EXPECT_EQ(tb->epoch, 1u);
  EXPECT_EQ(tb->graph_swaps, 0u);
  EXPECT_EQ(tb->failed, 0u);
  EXPECT_EQ(ta->failed, 0u);
  // A's churn exercised its cache invalidation; B's cache never invalidated.
  EXPECT_GE(ta->cache.invalidations + ta->cache.evictions, 1u);
  EXPECT_EQ(tb->cache.invalidations, 0u);
  EXPECT_GT(tb->cache.hits, 0u);

  const auto stats = router.stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.completed,
            static_cast<std::uint64_t>(2 * kClientsPerTenant) *
                kMinRequestsPerClient);
}

// Cross-tenant batch isolation on the shared device executor (runs under
// TSan and ASan in CI): a hot tenant flooding the device queue must not
// starve a cold tenant's partitions. The cold client's sequential requests
// all complete — correctly, against the cold tenant's own graph — WHILE the
// flood is running (the hot clients only stop once the cold client is done),
// which is exactly the liveness the per-tenant WRR device dequeue buys.
TEST(TenantRouterTest, DeviceModeHotFloodDoesNotStarveColdTenant) {
  const Graph ga = PaperDataGraph();
  const Graph gb = PaperGraphWithBlocks(2);
  const QueryGraph q = PaperQuery();
  const std::uint64_t expected_hot = BruteForceCount(q, ga);
  const std::uint64_t expected_cold = BruteForceCount(q, gb);

  RouterOptions options = SmallRouterOptions(4);
  options.device_mode = true;
  options.device.batch_window_seconds = 5e-3;
  options.device.max_batch_items = 4;
  TenantRouter router(options);
  ASSERT_TRUE(router.AddTenant("hot", ga).ok());
  ASSERT_TRUE(router.AddTenant("cold", gb).ok());

  constexpr int kColdRequests = 8;
  std::atomic<bool> cold_done{false};
  std::atomic<int> hot_mismatches{0};
  std::atomic<int> cold_mismatches{0};
  std::vector<std::thread> hot_clients;
  for (int c = 0; c < 2; ++c) {
    hot_clients.emplace_back([&] {
      while (!cold_done.load(std::memory_order_relaxed)) {
        auto r = router.SubmitAndWait("hot", q);
        if (!r.ok() || r->run.embeddings != expected_hot) {
          hot_mismatches.fetch_add(1);
          break;
        }
      }
    });
  }
  std::thread cold_client([&] {
    for (int i = 0; i < kColdRequests; ++i) {
      auto r = router.SubmitAndWait("cold", q);
      if (!r.ok() || r->run.embeddings != expected_cold) {
        cold_mismatches.fetch_add(1);
        break;
      }
    }
    cold_done.store(true);
  });
  cold_client.join();
  for (auto& t : hot_clients) t.join();

  EXPECT_EQ(hot_mismatches.load(), 0);
  EXPECT_EQ(cold_mismatches.load(), 0);
  auto cold_stats = router.tenant_stats("cold");
  ASSERT_TRUE(cold_stats.ok());
  EXPECT_EQ(cold_stats->completed, static_cast<std::uint64_t>(kColdRequests));
  EXPECT_EQ(cold_stats->failed, 0u);

  const auto stats = router.stats();
  EXPECT_TRUE(stats.device_mode);
  EXPECT_GT(stats.device.queries, static_cast<std::uint64_t>(kColdRequests));
  EXPECT_GE(stats.device.rounds, 1u);
  EXPECT_GT(stats.device.wire_bytes, 0u);
}

}  // namespace
}  // namespace fast
