// Tests for the concurrent query-serving subsystem (src/service/): canonical
// signatures, the plan/CST LRU cache, and MatchService correctness under
// concurrency, cache eviction, deadlines, and admission control.

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/driver.h"
#include "obs/accounting.h"
#include "obs/metrics.h"
#include "service/match_service.h"
#include "service/plan_cache.h"
#include "service/query_signature.h"
#include "tests/test_util.h"
#include "util/latency_histogram.h"
#include "util/timer.h"

namespace fast {
namespace {

using service::CanonicalizeQuery;
using service::MatchService;
using service::PlanCache;
using service::RequestOptions;
using service::ServiceOptions;
using testing::BruteForceCount;
using testing::BruteForceEmbeddings;
using testing::PaperDataGraph;
using testing::PaperQuery;
using testing::ToSet;

// Relabels q's vertices by perm: new vertex perm[u] = old vertex u.
QueryGraph PermuteQuery(const QueryGraph& q, const std::vector<VertexId>& perm,
                        const std::string& name) {
  const std::size_t n = q.NumVertices();
  std::vector<Label> labels(n);
  for (VertexId u = 0; u < n; ++u) labels[perm[u]] = q.label(u);
  GraphBuilder b;
  for (Label l : labels) b.AddVertex(l);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId w : q.neighbors(u)) {
      if (u < w) FAST_CHECK_OK(b.AddEdge(perm[u], perm[w], q.EdgeLabel(u, w)));
    }
  }
  auto g = std::move(b).Build();
  FAST_CHECK(g.ok());
  auto out = QueryGraph::Create(std::move(g).value(), name);
  FAST_CHECK(out.ok());
  return std::move(out).value();
}

// A second query shape on the paper graph: the A-B-C triangle u0-u1-u2.
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

// A path query A-B-D.
QueryGraph PathQuery() {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(3);
  FAST_CHECK_OK(b.AddEdge(0, 1));
  FAST_CHECK_OK(b.AddEdge(1, 2));
  auto q = QueryGraph::Create(std::move(b).Build().value(), "path");
  FAST_CHECK(q.ok());
  return std::move(q).value();
}

// ---- Canonical signatures. ----

TEST(QuerySignatureTest, IsomorphicNumberingsShareKey) {
  const QueryGraph q = PaperQuery();
  auto base = CanonicalizeQuery(q);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(base->exact);

  // Every relabeling of the paper query must canonicalize to the same key.
  const std::vector<std::vector<VertexId>> perms = {
      {1, 0, 2, 3}, {3, 2, 1, 0}, {2, 3, 0, 1}, {0, 2, 1, 3}};
  for (const auto& perm : perms) {
    auto permuted = CanonicalizeQuery(PermuteQuery(q, perm, "perm"));
    ASSERT_TRUE(permuted.ok());
    EXPECT_EQ(base->key, permuted->key);
  }
}

TEST(QuerySignatureTest, DifferentShapesGetDifferentKeys) {
  auto paper = CanonicalizeQuery(PaperQuery());
  auto triangle = CanonicalizeQuery(TriangleQuery());
  auto path = CanonicalizeQuery(PathQuery());
  ASSERT_TRUE(paper.ok() && triangle.ok() && path.ok());
  EXPECT_NE(paper->key, triangle->key);
  EXPECT_NE(paper->key, path->key);
  EXPECT_NE(triangle->key, path->key);
}

TEST(QuerySignatureTest, LabelsAffectKey) {
  GraphBuilder b1, b2;
  b1.AddVertex(0);
  b1.AddVertex(1);
  FAST_CHECK_OK(b1.AddEdge(0, 1));
  b2.AddVertex(0);
  b2.AddVertex(2);
  FAST_CHECK_OK(b2.AddEdge(0, 1));
  auto q1 = QueryGraph::Create(std::move(b1).Build().value());
  auto q2 = QueryGraph::Create(std::move(b2).Build().value());
  auto s1 = CanonicalizeQuery(*q1);
  auto s2 = CanonicalizeQuery(*q2);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_NE(s1->key, s2->key);
}

TEST(QuerySignatureTest, LabelsBeyondOneByteDoNotCollide) {
  // Labels are 32-bit; values differing by 256 must not share a key (a
  // byte-truncating encoding would collide 1 with 257).
  auto make = [](Label vertex_label, Label edge_label) {
    GraphBuilder b;
    b.AddVertex(vertex_label);
    b.AddVertex(5);
    FAST_CHECK_OK(b.AddEdge(0, 1, edge_label));
    auto q = QueryGraph::Create(std::move(b).Build().value());
    FAST_CHECK(q.ok());
    return std::move(q).value();
  };
  auto base = CanonicalizeQuery(make(1, 1));
  auto vertex_aliased = CanonicalizeQuery(make(257, 1));
  auto edge_aliased = CanonicalizeQuery(make(1, 257));
  ASSERT_TRUE(base.ok() && vertex_aliased.ok() && edge_aliased.ok());
  EXPECT_NE(base->key, vertex_aliased->key);
  EXPECT_NE(base->key, edge_aliased->key);
}

TEST(QuerySignatureTest, CanonicalQueryPreservesStructure) {
  const QueryGraph q = PaperQuery();
  auto c = CanonicalizeQuery(q);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->query.NumVertices(), q.NumVertices());
  ASSERT_EQ(c->query.NumEdges(), q.NumEdges());
  for (VertexId u = 0; u < q.NumVertices(); ++u) {
    EXPECT_EQ(c->query.label(c->to_canonical[u]), q.label(u));
    for (VertexId w = 0; w < q.NumVertices(); ++w) {
      EXPECT_EQ(c->query.HasEdge(c->to_canonical[u], c->to_canonical[w]),
                q.HasEdge(u, w));
    }
  }
}

// ---- Plan cache. ----

TEST(PlanCacheTest, LruEvictionOrder) {
  PlanCache cache(2);
  auto plan = std::make_shared<CompiledPlan>();
  cache.Insert("a", 1, plan);
  cache.Insert("b", 1, plan);
  EXPECT_NE(cache.Lookup("a", 1), nullptr);  // refresh a; b is now LRU
  cache.Insert("c", 1, plan);                // evicts b
  EXPECT_NE(cache.Lookup("a", 1), nullptr);
  EXPECT_EQ(cache.Lookup("b", 1), nullptr);
  EXPECT_NE(cache.Lookup("c", 1), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(PlanCacheTest, ZeroCapacityDisables) {
  PlanCache cache(0);
  cache.Insert("a", 1, std::make_shared<CompiledPlan>());
  EXPECT_EQ(cache.Lookup("a", 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PlanCacheTest, EpochMismatchMissesAndDropsEntry) {
  PlanCache cache(4);
  auto plan = std::make_shared<CompiledPlan>();
  cache.Insert("a", 1, plan);
  EXPECT_NE(cache.Lookup("a", 1), nullptr);
  // A plan built on epoch 1 must never serve epoch 2, and the dead entry is
  // reclaimed on the spot.
  EXPECT_EQ(cache.Lookup("a", 2), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // Re-inserting under the new epoch serves again.
  cache.Insert("a", 2, plan);
  EXPECT_NE(cache.Lookup("a", 2), nullptr);
}

TEST(PlanCacheTest, OldEpochRequestCannotDisturbNewerEntry) {
  // A request still draining on epoch 1 races a rebuild for epoch 2: its
  // lookup must miss without evicting the fresh entry, and its insert must
  // not overwrite it.
  PlanCache cache(4);
  auto fresh = std::make_shared<CompiledPlan>();
  cache.Insert("a", 2, fresh);
  EXPECT_EQ(cache.Lookup("a", 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);  // still there
  EXPECT_EQ(cache.stats().invalidations, 0u);

  auto stale = std::make_shared<CompiledPlan>();
  cache.Insert("a", 1, stale);
  EXPECT_EQ(cache.Lookup("a", 2), fresh);  // epoch-2 plan survived
}

TEST(PlanCacheTest, StaleInsertAfterInvalidateCannotEvictLiveEntries) {
  // A full cache of current-epoch plans; a request draining on the old
  // epoch finishes its build late. Its insert (a key not in the cache) must
  // be dropped, not evict a live plan from the LRU tail.
  PlanCache cache(2);
  auto plan = std::make_shared<CompiledPlan>();
  cache.Insert("a", 2, plan);
  cache.Insert("b", 2, plan);
  cache.InvalidateBefore(2);
  cache.Insert("late", 1, plan);
  EXPECT_EQ(cache.Lookup("late", 1), nullptr);
  EXPECT_NE(cache.Lookup("a", 2), nullptr);
  EXPECT_NE(cache.Lookup("b", 2), nullptr);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

// The paper query's whole CST as one partition: the unit the byte-budget
// tests size plans in.
const CompiledPartition& UnitPartition() {
  static const CompiledPartition part = [] {
    const Graph g = PaperDataGraph();
    const QueryGraph q = PaperQuery();
    auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased);
    FAST_CHECK(order.ok());
    auto cst = BuildCst(q, g, order->root);
    FAST_CHECK(cst.ok());
    return CompilePartition(*std::move(cst));
  }();
  return part;
}

std::size_t UnitBytes() { return UnitPartition().cst->SizeBytes(); }

// A plan of `card` card partitions and `host` host-kept ones, all the unit.
std::shared_ptr<CompiledPlan> PlanOfUnits(std::size_t card,
                                          std::size_t host = 0) {
  auto p = std::make_shared<CompiledPlan>();
  p->fpga.assign(card, UnitPartition());
  p->cpu.assign(host, UnitPartition().cst);
  return p;
}

TEST(PlanCacheTest, ByteBudgetEvictsLruBeyondBytes) {
  // Entry capacity 8 never binds here; the 10-unit budget does.
  ASSERT_GT(UnitBytes(), 0u);
  PlanCache cache(8, /*byte_budget=*/10 * UnitBytes());
  EXPECT_TRUE(cache.Insert("a", 1, PlanOfUnits(4)));
  EXPECT_TRUE(cache.Insert("b", 1, PlanOfUnits(4)));
  EXPECT_NE(cache.Lookup("a", 1), nullptr);        // refresh a; b becomes LRU
  EXPECT_TRUE(cache.Insert("c", 1, PlanOfUnits(4)));  // 12 > 10 units: evict b
  EXPECT_EQ(cache.Lookup("b", 1), nullptr);
  EXPECT_NE(cache.Lookup("a", 1), nullptr);
  EXPECT_NE(cache.Lookup("c", 1), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes_in_use, 8 * UnitBytes());
  EXPECT_EQ(stats.byte_budget, 10 * UnitBytes());
}

TEST(PlanCacheTest, OversizedPlanIsNotCached) {
  // A single plan larger than the whole budget must not wipe the cache to
  // admit itself: it is rejected, and the live entries stay.
  PlanCache cache(8, /*byte_budget=*/10 * UnitBytes());
  EXPECT_TRUE(cache.Insert("small", 1, PlanOfUnits(3)));
  EXPECT_FALSE(cache.Insert("big", 1, PlanOfUnits(8, 3)));  // 11 units
  EXPECT_EQ(cache.Lookup("big", 1), nullptr);
  EXPECT_NE(cache.Lookup("small", 1), nullptr);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.rejected_oversized, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bytes_in_use, 3 * UnitBytes());
}

TEST(PlanCacheTest, BytesInUseIsPartitionBytesOfCachedPlans) {
  PlanCache cache(8, /*byte_budget=*/100 * UnitBytes());
  // Host-kept partitions count like card partitions.
  ASSERT_TRUE(cache.Insert("a", 1, PlanOfUnits(2, 1)));
  ASSERT_TRUE(cache.Insert("b", 1, PlanOfUnits(5)));
  EXPECT_EQ(cache.stats().bytes_in_use, 8 * UnitBytes());
  EXPECT_EQ(PlanOfUnits(2, 1)->SizeBytes(), 3 * UnitBytes());
  // Replacing an entry swaps its bytes.
  ASSERT_TRUE(cache.Insert("a", 1, PlanOfUnits(1)));
  EXPECT_EQ(cache.stats().bytes_in_use, 6 * UnitBytes());
  // Dropping entries releases them.
  cache.InvalidateBefore(2);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PlanCacheTest, InvalidateBeforeDropsOldEpochsOnly) {
  PlanCache cache(8);
  auto plan = std::make_shared<CompiledPlan>();
  cache.Insert("a", 1, plan);
  cache.Insert("b", 2, plan);
  cache.Insert("c", 3, plan);
  cache.InvalidateBefore(3);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.Lookup("a", 1), nullptr);
  EXPECT_EQ(cache.Lookup("b", 2), nullptr);
  EXPECT_NE(cache.Lookup("c", 3), nullptr);
}

// ---- Service correctness. ----

ServiceOptions SmallServiceOptions(std::size_t workers) {
  ServiceOptions options;
  options.num_workers = workers;
  options.queue_capacity = 1024;
  options.plan_cache_capacity = 16;
  return options;
}

TEST(MatchServiceTest, SingleRequestMatchesBruteForce) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  MatchService svc(g, SmallServiceOptions(2));
  auto r = svc.SubmitAndWait(q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->run.embeddings, BruteForceCount(q, g));
}

TEST(MatchServiceTest, ConcurrentMixedWorkloadMatchesBruteForce) {
  const Graph g = PaperDataGraph();
  const std::vector<QueryGraph> mix = {PaperQuery(), TriangleQuery(), PathQuery()};
  std::vector<std::uint64_t> expected;
  for (const auto& q : mix) expected.push_back(BruteForceCount(q, g));

  MatchService svc(g, SmallServiceOptions(8));
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::size_t qi = static_cast<std::size_t>(t + i) % mix.size();
        auto r = svc.SubmitAndWait(mix[qi]);
        if (!r.ok() || r->run.embeddings != expected[qi]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed,
            static_cast<std::uint64_t>(kThreads) * kRequestsPerThread);
  // Three query shapes: all but the first three requests hit the plan cache
  // (up to harmless races rebuilding a plan concurrently).
  EXPECT_GT(stats.cache.hits, 0u);
  EXPECT_GE(stats.latency.count(), stats.completed);
}

TEST(MatchServiceTest, IsomorphicQueryHitsCacheAndRemapsEmbeddings) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const std::vector<VertexId> perm = {2, 0, 3, 1};
  const QueryGraph permuted = PermuteQuery(q, perm, "paper-permuted");

  MatchService svc(g, SmallServiceOptions(1));
  RequestOptions opts;
  opts.store_limit = 64;

  auto first = svc.SubmitAndWait(q, opts);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);

  auto second = svc.SubmitAndWait(permuted, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);

  // The permuted query is a different QueryGraph: its embeddings must be in
  // its own numbering, matching an independent brute-force run.
  EXPECT_EQ(second->run.embeddings, BruteForceCount(permuted, g));
  EXPECT_EQ(ToSet(second->run.sample_embeddings),
            ToSet(BruteForceEmbeddings(permuted, g)));
  // The reported matching order must also be in the submitted numbering: it
  // has to be a valid tree-connected order of the permuted query itself.
  EXPECT_TRUE(ValidateOrder(permuted, second->run.order.order).ok());
  EXPECT_EQ(second->run.order.order.front(), second->run.order.root);
}

TEST(MatchServiceTest, StreamingCallbackSeesAllEmbeddings) {
  const Graph g = PaperDataGraph();
  const std::vector<VertexId> perm = {1, 3, 0, 2};
  const QueryGraph permuted = PermuteQuery(PaperQuery(), perm, "cb-permuted");

  MatchService svc(g, SmallServiceOptions(1));
  // Warm the cache with the base shape so the callback path runs remapped.
  ASSERT_TRUE(svc.SubmitAndWait(PaperQuery()).ok());

  std::vector<Embedding> streamed;
  RequestOptions opts;
  opts.on_embedding = [&](std::span<const VertexId> e) {
    streamed.emplace_back(e.begin(), e.end());
  };
  auto r = svc.SubmitAndWait(permuted, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
  EXPECT_EQ(ToSet(streamed), ToSet(BruteForceEmbeddings(permuted, g)));
}

TEST(MatchServiceTest, CacheEvictionKeepsResultsCorrect) {
  const Graph g = PaperDataGraph();
  ServiceOptions options = SmallServiceOptions(1);
  options.plan_cache_capacity = 2;
  MatchService svc(g, options);

  const std::vector<QueryGraph> shapes = {PaperQuery(), TriangleQuery(), PathQuery()};
  std::vector<std::uint64_t> expected;
  for (const auto& q : shapes) expected.push_back(BruteForceCount(q, g));

  // Two rounds over three shapes with capacity two: evictions must occur and
  // every result must stay correct.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      auto r = svc.SubmitAndWait(shapes[i]);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->run.embeddings, expected[i]);
    }
  }
  const auto stats = svc.stats();
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_LE(stats.cache.entries, 2u);
}

// Sets `release` once `since` shows more than `seconds` elapsed: the
// deadline tests hold their blocking callback on that flag instead of
// sleeping a fixed time and hoping the deadline has passed.
void ReleaseAfter(double seconds, const Timer& since,
                  std::atomic<bool>& release) {
  while (since.ElapsedSeconds() <= seconds) std::this_thread::yield();
  release.store(true);
}

// 30 disjoint A-B-C triangles; with N_o = 4 the kernel needs many Generator
// rounds, so there is always a round boundary — and therefore a cancellation
// probe — after the first embedding.
Graph DisjointTriangles() {
  GraphBuilder b;
  for (VertexId i = 0; i < 30; ++i) {
    const VertexId base = 3 * i;
    b.AddVertex(0);
    b.AddVertex(1);
    b.AddVertex(2);
    FAST_CHECK_OK(b.AddEdge(base, base + 1));
    FAST_CHECK_OK(b.AddEdge(base, base + 2));
    FAST_CHECK_OK(b.AddEdge(base + 1, base + 2));
  }
  return std::move(b).Build().value();
}

// One request whose 50 ms deadline is burnt inside its run, on a service of
// its own, and what its callbacks saw.
struct MidRunDeadline {
  std::atomic<int> seen{0};
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<bool> done{false};
  service::RequestResult result;  // valid once `done`
  std::unique_ptr<MatchService> svc;  // last member: stops its workers first
};

// Submits TriangleQuery on DisjointTriangles under `options` with a 50 ms
// deadline; its first embedding callback holds the run until the deadline
// has passed, and the request's completion fills `result`. A deadline can
// trip before the first embedding on a loaded host (while queued, or at the
// device's pre-transfer probe), leaving nothing to hold, so the wait for the
// first embedding is bounded by the request's completion, and such an
// attempt is retried on a fresh service, a bounded number of times.
std::unique_ptr<MidRunDeadline> RunWithMidRunDeadline(
    const ServiceOptions& options) {
  constexpr int kAttempts = 5;
  for (int attempt = 1;; ++attempt) {
    auto run = std::make_unique<MidRunDeadline>();
    run->svc = std::make_unique<MatchService>(DisjointTriangles(), options);
    RequestOptions opts;
    opts.deadline_seconds = 0.05;
    opts.on_embedding = [r = run.get()](std::span<const VertexId>) {
      // Burn through the deadline inside the run; dispatch happened long
      // before it expired, so only mid-run enforcement can reject this.
      if (r->seen.fetch_add(1) == 0) {
        r->started.store(true);
        while (!r->release.load()) std::this_thread::yield();
      }
    };
    opts.on_complete = [r = run.get()](std::uint64_t,
                                       const service::RequestResult& result) {
      r->result = result;
      r->done.store(true);
    };
    if (!run->svc->Submit(TriangleQuery(), opts).ok()) {
      ADD_FAILURE() << "Submit failed";
      return nullptr;
    }
    while (!run->started.load() && !run->done.load()) {
      std::this_thread::yield();
    }
    if (!run->started.load() && attempt < kAttempts) continue;
    // The run armed its deadline before the first embedding, so a timer
    // started after that embedding outlasts it.
    ReleaseAfter(opts.deadline_seconds, Timer(), run->release);
    while (!run->done.load()) std::this_thread::yield();
    return run;
  }
}

TEST(MatchServiceTest, DeadlinePassedInQueueRejects) {
  const Graph g = PaperDataGraph();
  ServiceOptions options = SmallServiceOptions(1);
  MatchService svc(g, options);

  // Block the single worker inside a request via its embedding callback.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  RequestOptions blocker_opts;
  blocker_opts.on_embedding = [&](std::span<const VertexId>) {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  auto blocker = svc.Submit(PaperQuery(), blocker_opts);
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  // This request allows only 1ms, and stays queued until that has passed:
  // the timer starts after the request's own admission clock.
  RequestOptions tight;
  tight.deadline_seconds = 0.001;
  auto late = svc.Submit(TriangleQuery(), tight);
  ASSERT_TRUE(late.ok());
  ReleaseAfter(tight.deadline_seconds, Timer(), release);

  auto late_result = svc.Wait(*late);
  EXPECT_EQ(late_result->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(svc.Wait(*blocker)->status.ok());
  EXPECT_EQ(svc.stats().rejected_deadline, 1u);
}

TEST(MatchServiceTest, DeadlineExpiringMidRunAbortsMatching) {
  ServiceOptions options = SmallServiceOptions(1);
  options.run.fpga.max_new_partials = 4;
  const std::unique_ptr<MidRunDeadline> run = RunWithMidRunDeadline(options);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->result.status.code(), StatusCode::kDeadlineExceeded);
  // Dispatched (epoch captured), then aborted mid-run — not a queue reject.
  EXPECT_GT(run->result.graph_epoch, 0u);
  EXPECT_GT(run->seen.load(), 0);
  EXPECT_LT(run->seen.load(), 30);  // the run did not finish all 30 triangles
  const auto stats = run->svc->stats();
  EXPECT_EQ(stats.cancelled_midrun, 1u);
  EXPECT_EQ(stats.rejected_deadline, 0u);
  EXPECT_EQ(stats.completed, 0u);

  // The same query without a deadline completes and finds all 30.
  auto ok = run->svc->SubmitAndWait(TriangleQuery());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->run.embeddings, 30u);
}

TEST(MatchServiceTest, OversizedPlanIsAMissEveryTime) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  ServiceOptions options = SmallServiceOptions(2);
  options.plan_cache_byte_budget = 8;  // every plan is over the budget
  MatchService svc(g, options);

  for (int i = 0; i < 3; ++i) {
    auto r = svc.SubmitAndWait(q);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->cache_hit);
    EXPECT_EQ(r->run.embeddings, BruteForceCount(q, g));
    EXPECT_GT(r->run.build_seconds, 0.0);  // built afresh each time
    EXPECT_EQ(r->plan_bytes_charged, 0u);  // nothing was cached
  }

  const auto stats = svc.stats();
  EXPECT_EQ(stats.cache.rejected_oversized, 3u);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 3u);
  EXPECT_EQ(stats.cache.entries, 0u);
  EXPECT_EQ(stats.cache.bytes_in_use, 0u);
}

TEST(MatchServiceTest, CacheBytesEqualCachedPlanPartitionBytes) {
  const Graph g = PaperDataGraph();
  const ServiceOptions options = SmallServiceOptions(2);
  MatchService svc(g, options);

  std::uint64_t charged = 0;
  std::size_t expected = 0;
  for (const QueryGraph& q : {PaperQuery(), TriangleQuery(), PathQuery()}) {
    auto r = svc.SubmitAndWait(q);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r->cache_hit);
    charged += r->plan_bytes_charged;

    // The same plan recorded directly: Σ SizeBytes() of its partitions.
    auto canonical = CanonicalizeQuery(q);
    ASSERT_TRUE(canonical.ok());
    auto order = ComputeMatchingOrder(canonical->query, g, options.run.order_policy);
    ASSERT_TRUE(order.ok());
    auto cst = BuildCst(canonical->query, g, order->root, options.run.cst_build);
    ASSERT_TRUE(cst.ok());
    CompiledPlan plan;
    ASSERT_TRUE(RunFastWithCst(*cst, *order, options.run, 0.0, &plan).ok());
    std::size_t bytes = 0;
    for (const CompiledPartition& p : plan.fpga) bytes += p.cst->SizeBytes();
    EXPECT_EQ(bytes, plan.SizeBytes());
    expected += bytes;
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.cache.entries, 3u);
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(stats.cache.bytes_in_use, expected);
  EXPECT_EQ(charged, expected);
}

ServiceOptions DeviceServiceOptions(std::size_t workers) {
  ServiceOptions options = SmallServiceOptions(workers);
  options.device_mode = true;
  options.device.batch_window_seconds = 1e-4;
  options.device.max_batch_items = 8;
  return options;
}

TEST(MatchServiceTest, DeviceModeMixedWorkloadMatchesBruteForce) {
  // The shared-device path must be bit-equivalent to the per-worker path:
  // same counts, same remapped embeddings, under concurrent submission.
  const Graph g = PaperDataGraph();
  const std::vector<QueryGraph> mix = {PaperQuery(), TriangleQuery(),
                                       PathQuery()};
  std::vector<std::uint64_t> expected;
  expected.reserve(mix.size());
  for (const auto& q : mix) expected.push_back(BruteForceCount(q, g));

  MatchService svc(g, DeviceServiceOptions(4));
  constexpr int kRequests = 24;
  std::vector<MatchService::RequestId> ids;
  for (int i = 0; i < kRequests; ++i) {
    auto id = svc.Submit(mix[static_cast<std::size_t>(i) % mix.size()]);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (int i = 0; i < kRequests; ++i) {
    auto r = svc.Wait(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE((*r).status.ok()) << (*r).status;
    EXPECT_EQ((*r).run.embeddings, expected[static_cast<std::size_t>(i) % mix.size()]);
    EXPECT_GE((*r).run.fpga_partitions, 1u);
  }

  const auto stats = svc.stats();
  EXPECT_TRUE(stats.device_mode);
  EXPECT_EQ(stats.device.queries, static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(stats.device.items, static_cast<std::uint64_t>(kRequests));
  EXPECT_GT(stats.device.wire_bytes, 0u);
  EXPECT_GE(stats.device.QueriesPerRound(), 1.0);
}

TEST(MatchServiceTest, DeviceModeDeadlineExpiringMidRunAborts) {
  // The device analog of DeadlineExpiringMidRunAbortsMatching: the token is
  // probed inside the shared device round (kernel loop and pipeline
  // simulation), so a deadline burnt inside the run still cancels, and the
  // service still reports it as cancelled_midrun.
  ServiceOptions options = DeviceServiceOptions(1);
  options.run.fpga.max_new_partials = 4;
  const std::unique_ptr<MidRunDeadline> run = RunWithMidRunDeadline(options);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(run->result.graph_epoch, 0u);  // aborted mid-run, not while queued
  EXPECT_GT(run->seen.load(), 0);
  EXPECT_LT(run->seen.load(), 30);
  const auto stats = run->svc->stats();
  EXPECT_EQ(stats.cancelled_midrun, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_GE(stats.device.cancelled_items, 1u);

  // The same query without a deadline completes on the device path.
  auto ok = run->svc->SubmitAndWait(TriangleQuery());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->run.embeddings, 30u);
}

TEST(MatchServiceTest, FullQueueRejectsSubmit) {
  const Graph g = PaperDataGraph();
  ServiceOptions options = SmallServiceOptions(1);
  options.queue_capacity = 1;
  MatchService svc(g, options);

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  RequestOptions blocker_opts;
  blocker_opts.on_embedding = [&](std::span<const VertexId>) {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  auto blocker = svc.Submit(PaperQuery(), blocker_opts);
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  // Worker busy; capacity-1 queue takes one request, then rejects.
  auto queued = svc.Submit(TriangleQuery());
  ASSERT_TRUE(queued.ok());
  auto rejected = svc.Submit(PathQuery());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  // The full-queue check runs before canonicalization: a malformed query is
  // rejected for capacity, not validated.
  auto malformed = svc.Submit(QueryGraph());
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kResourceExhausted);

  release.store(true);
  EXPECT_TRUE(svc.Wait(*blocker)->status.ok());
  EXPECT_TRUE(svc.Wait(*queued)->status.ok());
  EXPECT_EQ(svc.stats().rejected_queue_full, 2u);
}

TEST(MatchServiceTest, ShutdownDrainsBacklogAndRejectsNewWork) {
  const Graph g = PaperDataGraph();
  MatchService svc(g, SmallServiceOptions(2));
  std::vector<MatchService::RequestId> ids;
  for (int i = 0; i < 20; ++i) {
    auto id = svc.Submit(PaperQuery());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  svc.Shutdown();
  for (auto id : ids) EXPECT_TRUE(svc.Wait(id)->status.ok());
  EXPECT_EQ(svc.Submit(PaperQuery()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(MatchServiceTest, WaitTwiceReturnsNotFound) {
  const Graph g = PaperDataGraph();
  MatchService svc(g, SmallServiceOptions(1));
  auto id = svc.Submit(PaperQuery());
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(svc.Wait(*id)->status.ok());
  // Double Wait: the NOT_FOUND is on the OUTER StatusOr, so it can never
  // be mistaken for an execution outcome.
  EXPECT_EQ(svc.Wait(*id).status().code(), StatusCode::kNotFound);
}

// Callback-mode delivery under concurrent producers and a small queue: every
// admitted request's on_complete fires exactly once with the right count, its
// id is never waitable, and each RESOURCE_EXHAUSTED a producer retries
// through is counted as exactly one queue-full rejection.
TEST(MatchServiceTest, ConcurrentCallbackSubmittersDeliverEachResultOnce) {
  const Graph g = PaperDataGraph();
  const std::vector<QueryGraph> mix = {PaperQuery(), TriangleQuery(), PathQuery()};
  std::vector<std::uint64_t> expected;
  for (const auto& q : mix) expected.push_back(BruteForceCount(q, g));

  ServiceOptions options = SmallServiceOptions(3);
  options.queue_capacity = 8;
  MatchService svc(g, options);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100;
  std::mutex mu;
  std::map<std::uint64_t, int> deliveries;
  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> full_rejections{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::size_t qi = static_cast<std::size_t>(p + i) % mix.size();
        RequestOptions opts;
        opts.on_complete = [&, qi](std::uint64_t id,
                                   const service::RequestResult& r) {
          if (!r.status.ok() || r.run.embeddings != expected[qi]) {
            mismatches.fetch_add(1);
          }
          std::lock_guard<std::mutex> lock(mu);
          ++deliveries[id];
        };
        while (true) {
          auto id = svc.Submit(mix[qi], opts);
          if (id.ok()) {
            EXPECT_EQ(svc.Wait(*id).status().code(), StatusCode::kNotFound);
            break;
          }
          ASSERT_EQ(id.status().code(), StatusCode::kResourceExhausted);
          full_rejections.fetch_add(1);
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  svc.Shutdown();  // drains the backlog: every callback has run

  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(deliveries.size(), kTotal);
  for (const auto& [id, n] : deliveries) EXPECT_EQ(n, 1) << "request " << id;
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.completed, kTotal);
  EXPECT_EQ(stats.rejected_queue_full, full_rejections.load());
}

// A malformed query fails validation at Submit: it is neither admitted nor
// counted as a rejection, and the service keeps serving.
TEST(MatchServiceTest, MalformedQueryRejectedBeforeAdmission) {
  MatchService svc(PaperDataGraph(), SmallServiceOptions(1));
  auto bad = svc.Submit(QueryGraph());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.queue_depth(), 0u);

  ASSERT_TRUE(svc.SubmitAndWait(PaperQuery()).ok());
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
}

// The one tenant has the empty id: traces carry tenant_id "" and every
// request is charged to the default account.
TEST(MatchServiceTest, RequestsAreChargedToTheDefaultTenant) {
  obs::MetricsRegistry reg;
  ServiceOptions options = SmallServiceOptions(1);
  options.metrics = &reg;
  options.tracing = true;
  MatchService svc(PaperDataGraph(), options);
  auto r = svc.SubmitAndWait(PaperQuery());
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_NE(r->trace, nullptr);
  EXPECT_EQ(r->trace->tenant_id, "");

  const auto accounts = svc.request_obs()->accounts().Snapshot();
  ASSERT_EQ(accounts.size(), 1u);
  EXPECT_EQ(accounts[0].tenant, obs::kDefaultAccount);
  EXPECT_EQ(accounts[0].requests, 1u);
  EXPECT_EQ(accounts[0].errors, 0u);
  EXPECT_EQ(reg.GetCounter("fast_requests_completed_total")->Value(), 1u);
}

// The service's registry sees the worker pool's idle waits: a worker that
// blocks on the empty queue and then picks up a request charges the wait to
// the pop-blocked counters.
TEST(MatchServiceTest, IdleWorkerPopWaitReachesRegistry) {
  obs::MetricsRegistry reg;
  ServiceOptions options = SmallServiceOptions(1);
  options.metrics = &reg;
  MatchService svc(PaperDataGraph(), options);
  obs::Counter* pops = reg.GetCounter("fast_queue_pops_blocked_total");
  obs::Counter* pop_ns = reg.GetCounter("fast_queue_pop_block_ns_total");
  // The lone worker goes idle asynchronously (at start and after each
  // delivery), so each retry first gives it a moment to get there.
  for (int i = 0; i < 200 && pops->Value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(svc.SubmitAndWait(PaperQuery()).ok());
  }
  EXPECT_GT(pops->Value(), 0u);
  EXPECT_GT(pop_ns->Value(), 0u);
}

// ---- Supporting utilities. ----

TEST(LatencyHistogramTest, QuantilesWithinBucketError) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i) * 1e-6);
  EXPECT_EQ(h.count(), 1000u);
  // p50 ~ 500us, p99 ~ 990us; log buckets guarantee <= 12.5% relative error.
  EXPECT_NEAR(h.P50() * 1e6, 500.0, 500.0 * 0.125 + 1.0);
  EXPECT_NEAR(h.P99() * 1e6, 990.0, 990.0 * 0.125 + 1.0);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 1e-3);
}

TEST(LatencyHistogramTest, MergeEqualsCombinedRecording) {
  LatencyHistogram a, b, combined;
  for (int i = 0; i < 100; ++i) {
    const double v = static_cast<double>(i % 17 + 1) * 1e-4;
    (i % 2 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.P50(), combined.P50());
  EXPECT_DOUBLE_EQ(a.P99(), combined.P99());
  EXPECT_DOUBLE_EQ(a.sum_seconds(), combined.sum_seconds());
}

}  // namespace
}  // namespace fast
