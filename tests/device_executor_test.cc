// Tests for the shared device executor (src/device/): correctness of
// device-routed matching vs the inline driver path, cross-query batch
// coalescing and transfer dedup of shared partitions, WRR fairness between a
// hot and a cold tenant's partition streams, mid-batch cancellation,
// shutdown, matching one query's items on several threads (the result of a
// lone run, and a callback that never runs twice at once), and two rounds open
// at once: the next round matches while one is still matching, yet rounds
// retire, and show on the timeline, one after another.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/driver.h"
#include "cst/cst.h"
#include "cst/partition.h"
#include "device/device_executor.h"
#include "ldbc/ldbc.h"
#include "query/matching_order.h"
#include "tests/test_util.h"
#include "util/cancel.h"

namespace fast {
namespace {

using device::DeviceExecutor;
using device::DeviceOptions;
using device::DeviceQueue;
using device::DeviceQueryResult;
using device::DeviceStats;
using testing::BruteForceCount;
using testing::PaperDataGraph;
using testing::PaperQuery;

// A device model small enough that tests run instantly; matches the serve
// benches' scaled-down card.
DeviceOptions SmallDeviceOptions() {
  DeviceOptions opts;
  opts.fpga.bram_words = 128 * 1024;
  opts.fpga.port_max = 65536;
  opts.fpga.max_new_partials = 1024;
  return opts;
}

struct Plan {
  MatchingOrder order;
  Cst cst;
};

Plan BuildPlan(const QueryGraph& q, const Graph& g) {
  auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased);
  FAST_CHECK(order.ok());
  auto cst = BuildCst(q, g, order->root, {});
  FAST_CHECK(cst.ok());
  return {*std::move(order), *std::move(cst)};
}

// The pipeline's miss path from a prebuilt CST, placed on the shared device
// through `queue`: the run partitions its own copy of the CST.
StatusOr<FastRunResult> RunCstOnDevice(
    const std::shared_ptr<DeviceQueue>& queue, const Cst& cst,
    const MatchingOrder& order, const FastRunOptions& options) {
  device::DevicePlacement placement(queue);
  return RunFastWithCst(cst, order, options, 0.0, nullptr, &placement);
}

// The plan a miss run under `run` records (inline), for replay.
CompiledPlan RecordPlan(const Plan& plan, const FastRunOptions& run) {
  CompiledPlan compiled;
  FAST_CHECK(RunFastWithCst(plan.cst, plan.order, run, 0.0, &compiled).ok());
  return compiled;
}

TEST(DeviceExecutorTest, DeviceRoutedRunMatchesInlineDriver) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);

  FastRunOptions run;
  run.fpga = SmallDeviceOptions().fpga;
  run.store_limit = 16;
  auto inline_result = RunFastWithCst(plan.cst, plan.order, run);
  ASSERT_TRUE(inline_result.ok());

  DeviceExecutor device(SmallDeviceOptions());
  auto device_result =
      RunCstOnDevice(device.OpenQueue(), plan.cst, plan.order, run);
  ASSERT_TRUE(device_result.ok());

  EXPECT_EQ(device_result->embeddings, BruteForceCount(q, g));
  EXPECT_EQ(device_result->embeddings, inline_result->embeddings);
  // Items fold into the query in partition order, whichever thread matched
  // them, so the stored embeddings come out in the inline run's order.
  EXPECT_EQ(device_result->sample_embeddings, inline_result->sample_embeddings);
  EXPECT_GE(device_result->fpga_partitions, 1u);
  EXPECT_GT(device_result->pcie_seconds, 0.0);
  EXPECT_GT(device_result->kernel_seconds, 0.0);

  const DeviceStats stats = device.stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_GE(stats.rounds, 1u);
  EXPECT_EQ(stats.items, device_result->fpga_partitions);
  EXPECT_GT(stats.wire_bytes, stats.payload_bytes);  // per-round DMA overhead
}

// Partitions RunCstOnDevice streams to the device for `plan`: Alg. 2 is
// deterministic, so a dry run under the same config predicts them exactly.
std::size_t PartitionCount(const Plan& plan, const DeviceOptions& opts,
                           const FastRunOptions& run) {
  const PartitionConfig pconfig = DerivePartitionConfig(
      opts.fpga, plan.cst.layout().query().NumVertices(), run.partition);
  auto parts = PartitionCstToVector(plan.cst, plan.order, pconfig);
  FAST_CHECK(parts.ok());
  return parts->size();
}

// Runs `run_one(queue)` for each of `queues` on its own thread, with rounds
// held until every thread's `parts` partitions are queued, so all of them
// land in the first round formed after the release — exact, not a race
// between the submitters and a batch window. Returns the number of wrong
// results.
template <typename RunOne>
int RunHeldThenReleased(DeviceExecutor& device,
                        const std::vector<std::shared_ptr<DeviceQueue>>& queues,
                        std::size_t parts, std::uint64_t expected_embeddings,
                        RunOne run_one) {
  std::atomic<int> failures{0};
  device.HoldRounds();
  std::vector<std::thread> submitters;
  for (const std::shared_ptr<DeviceQueue>& queue : queues) {
    submitters.emplace_back([&, queue] {
      StatusOr<FastRunResult> r = run_one(queue);
      if (!r.ok() || r->embeddings != expected_embeddings) failures.fetch_add(1);
    });
  }
  while (device.queue_depth() < queues.size() * parts) {
    std::this_thread::yield();
  }
  device.ReleaseRounds();
  for (auto& t : submitters) t.join();
  return failures.load();
}

TEST(DeviceExecutorTest, BatchCoalescesConcurrentQueriesIntoOneRound) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);

  DeviceOptions opts = SmallDeviceOptions();
  opts.batch_window_seconds = 0;  // the hold, not a window, gathers items
  opts.max_batch_items = 64;
  DeviceExecutor device(opts);

  FastRunOptions run;
  run.fpga = opts.fpga;
  // Distinct tenants, same canonical plan: the batch must mix them.
  EXPECT_EQ(RunHeldThenReleased(
                device, {device.OpenQueue(), device.OpenQueue()},
                PartitionCount(plan, opts, run), BruteForceCount(q, g),
                [&](const std::shared_ptr<DeviceQueue>& queue) {
                  return RunCstOnDevice(queue, plan.cst, plan.order, run);
                }),
            0);

  const DeviceStats stats = device.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.rounds, 1u);  // one shared round for both queries
  EXPECT_EQ(stats.max_queries_per_round, 2u);
  EXPECT_GT(stats.QueriesPerRound(), 1.0);
}

TEST(DeviceExecutorTest, IdenticalImagesInOneRoundTransferOnce) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);

  DeviceOptions opts = SmallDeviceOptions();
  opts.batch_window_seconds = 0;
  opts.max_batch_items = 64;
  DeviceExecutor device(opts);

  FastRunOptions run;
  run.fpga = opts.fpga;
  // Two queries of one tenant replay ONE compiled plan (two plan-cache
  // hits): every partition is shared by both queries' items.
  const CompiledPlan compiled = RecordPlan(plan, run);
  const auto t0 = device.OpenQueue();
  EXPECT_EQ(RunHeldThenReleased(
                device, {t0, t0}, compiled.fpga.size(), BruteForceCount(q, g),
                [&](const std::shared_ptr<DeviceQueue>& queue) {
                  device::DevicePlacement placement(queue);
                  return RunFast(q, g, run, &placement, &compiled);
                }),
            0);

  const DeviceStats stats = device.stats();
  ASSERT_EQ(stats.rounds, 1u);
  // The duplicate query's images rode the first transfer for free.
  EXPECT_GT(stats.dedup_bytes_saved, 0u);
  EXPECT_EQ(stats.dedup_bytes_saved, stats.payload_bytes);
}

// Dedup keys on the shared partition, not on what it holds: two misses of
// one shape each partition their own copy, and each copy is transferred.
TEST(DeviceExecutorTest, SeparatelyBuiltCopiesAreEachTransferred) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);

  DeviceOptions opts = SmallDeviceOptions();
  opts.batch_window_seconds = 0;
  opts.max_batch_items = 64;
  DeviceExecutor device(opts);

  FastRunOptions run;
  run.fpga = opts.fpga;
  std::uint64_t copy_bytes = 0;
  for (const CompiledPartition& p : RecordPlan(plan, run).fpga) {
    copy_bytes += p.wire_bytes;
  }
  const auto t0 = device.OpenQueue();
  EXPECT_EQ(RunHeldThenReleased(
                device, {t0, t0}, PartitionCount(plan, opts, run),
                BruteForceCount(q, g),
                [&](const std::shared_ptr<DeviceQueue>& queue) {
                  return RunCstOnDevice(queue, plan.cst, plan.order, run);
                }),
            0);

  const DeviceStats stats = device.stats();
  ASSERT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.dedup_bytes_saved, 0u);
  EXPECT_EQ(stats.payload_bytes, 2 * copy_bytes);
}

// A hot tenant flooding the device queue must not starve a cold tenant's
// partitions. The WRR dequeue interleaves queues per round, so the cold
// query's items land in its FIRST round -- the same round structure it gets
// running solo -- instead of queueing behind the whole hot backlog. Rounds
// are held while enqueuing, so round composition is exact, not a race
// between the device thread and the enqueuing thread.
TEST(DeviceExecutorTest, ColdTenantRidesFirstRoundDespiteHotFlood) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);

  DeviceOptions opts = SmallDeviceOptions();
  opts.batch_window_seconds = 0;  // the hold, not a window, gathers items
  opts.max_batch_items = 4;
  constexpr std::size_t kHotItems = 16;
  constexpr std::size_t kColdItems = 2;

  // Solo baseline: the cold tenant alone finishes within its first round.
  {
    DeviceExecutor device(opts);
    ResultCollector collector;
    device.HoldRounds();
    auto cold =
        device.BeginQuery(device.OpenQueue(), plan.order, &collector, nullptr);
    for (std::size_t i = 0; i < kColdItems; ++i) {
      ASSERT_TRUE(device.EnqueuePartition(cold, CompilePartition(plan.cst)).ok());
    }
    device.ReleaseRounds();
    DeviceQueryResult r = device.FinishQuery(cold);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.first_round, 1u);
    EXPECT_EQ(r.last_round, 1u);
    EXPECT_EQ(r.items, kColdItems);
  }

  // Flooded: 16 hot items enqueued BEFORE the cold query's 2.
  DeviceExecutor device(opts);
  ResultCollector hot_collector;
  ResultCollector cold_collector;
  device.HoldRounds();
  auto hot = device.BeginQuery(device.OpenQueue(), plan.order, &hot_collector,
                               nullptr);
  for (std::size_t i = 0; i < kHotItems; ++i) {
    ASSERT_TRUE(device.EnqueuePartition(hot, CompilePartition(plan.cst)).ok());
  }
  auto cold = device.BeginQuery(device.OpenQueue(), plan.order,
                                &cold_collector, nullptr);
  for (std::size_t i = 0; i < kColdItems; ++i) {
    ASSERT_TRUE(device.EnqueuePartition(cold, CompilePartition(plan.cst)).ok());
  }
  device.ReleaseRounds();
  DeviceQueryResult cold_r = device.FinishQuery(cold);
  DeviceQueryResult hot_r = device.FinishQuery(hot);
  ASSERT_TRUE(cold_r.status.ok());
  ASSERT_TRUE(hot_r.status.ok());
  EXPECT_EQ(cold_r.items, kColdItems);
  EXPECT_EQ(hot_r.items, kHotItems);
  // Round 1 alternates hot, cold, hot, cold: the cold query finishes in the
  // same round as solo. The 14 remaining hot items need 4 more rounds.
  EXPECT_EQ(cold_r.first_round, 1u);
  EXPECT_EQ(cold_r.last_round, 1u);
  EXPECT_EQ(hot_r.first_round, 1u);
  EXPECT_EQ(hot_r.last_round, 5u);
  const DeviceStats stats = device.stats();
  EXPECT_EQ(stats.rounds, 5u);
  EXPECT_EQ(stats.max_queries_per_round, 2u);
  // Each item of the flood still matched correctly.
  EXPECT_EQ(cold_r.embeddings, kColdItems * BruteForceCount(q, g));
  EXPECT_EQ(hot_r.embeddings, kHotItems * BruteForceCount(q, g));
}

TEST(DeviceExecutorTest, TrippedTokenSkipsItemsMidBatch) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);

  DeviceExecutor device(SmallDeviceOptions());
  CancelToken cancelled;
  cancelled.Cancel();
  ResultCollector collector;
  auto session = device.BeginQuery(device.OpenQueue(), plan.order, &collector,
                                   &cancelled);
  ASSERT_TRUE(device.EnqueuePartition(session, CompilePartition(plan.cst)).ok());
  ASSERT_TRUE(device.EnqueuePartition(session, CompilePartition(plan.cst)).ok());
  DeviceQueryResult r = device.FinishQuery(session);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.items, 0u);
  EXPECT_EQ(collector.count(), 0u);
  const DeviceStats stats = device.stats();
  EXPECT_EQ(stats.cancelled_items, 2u);
  EXPECT_EQ(stats.items, 0u);
  EXPECT_EQ(stats.payload_bytes, 0u);  // skipped items never transfer
}

TEST(DeviceExecutorTest, ShutdownDrainsThenRejectsNewWork) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);

  DeviceExecutor device(SmallDeviceOptions());
  FastRunOptions run;
  run.fpga = device.options().fpga;
  const auto t0 = device.OpenQueue();
  auto before = RunCstOnDevice(t0, plan.cst, plan.order, run);
  ASSERT_TRUE(before.ok());

  device.Shutdown();
  ResultCollector collector;
  auto session = device.BeginQuery(t0, plan.order, &collector, nullptr);
  EXPECT_EQ(device.EnqueuePartition(session, CompilePartition(plan.cst)).code(),
            StatusCode::kFailedPrecondition);
  auto after = RunCstOnDevice(t0, plan.cst, plan.order, run);
  EXPECT_FALSE(after.ok());
}

// An LDBC query whose CST a 512-word budget splits into many partitions,
// with the plan an inline miss records for it.
struct SplitPlan {
  QueryGraph q;
  Graph g;
  FastRunOptions run;
  CompiledPlan compiled;
};

SplitPlan RecordSplitPlan(const DeviceOptions& opts) {
  SplitPlan s{LdbcQuery(1).value(), testing::SmallLdbcGraph(), {}, {}};
  s.run.fpga = opts.fpga;
  s.run.partition.max_size_words = 512;
  s.run.store_limit = 1u << 20;  // every embedding, in discovery order
  s.compiled = RecordPlan(BuildPlan(s.q, s.g), s.run);
  return s;
}

// One query's items match on several threads at once (the device thread and
// the workers blocked in FinishQuery), yet each replay returns exactly what
// a lone replay returns: counters, embeddings in order, and the simulated
// kernel seconds summed in the same order.
TEST(DeviceExecutorTest, ConcurrentReplaysMatchALoneRunExactly) {
  DeviceOptions opts = SmallDeviceOptions();
  opts.batch_window_seconds = 0;
  opts.max_batch_items = 3;
  const SplitPlan s = RecordSplitPlan(opts);
  ASSERT_GT(s.compiled.fpga.size(), opts.max_batch_items);

  const auto replay = [&](const std::shared_ptr<DeviceQueue>& queue) {
    device::DevicePlacement placement(queue);
    return RunFast(s.q, s.g, s.run, &placement, &s.compiled);
  };
  DeviceExecutor lone_device(opts);
  const StatusOr<FastRunResult> lone = replay(lone_device.OpenQueue());
  ASSERT_TRUE(lone.ok()) << lone.status();
  ASSERT_GT(lone->embeddings, 0u);
  ASSERT_EQ(lone->sample_embeddings.size(), lone->embeddings);

  DeviceExecutor device(opts);
  constexpr int kReplays = 3;
  std::vector<StatusOr<FastRunResult>> results(kReplays,
                                               Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (int i = 0; i < kReplays; ++i) {
    threads.emplace_back([&, i, queue = device.OpenQueue()] {
      results[i] = replay(queue);
    });
  }
  for (auto& t : threads) t.join();

  for (const StatusOr<FastRunResult>& r : results) {
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->embeddings, lone->embeddings);
    EXPECT_EQ(r->sample_embeddings, lone->sample_embeddings);
    EXPECT_EQ(r->kernel_seconds, lone->kernel_seconds);  // bit-identical
    EXPECT_EQ(r->fpga_partitions, lone->fpga_partitions);
    EXPECT_EQ(r->counters.partial_results, lone->counters.partial_results);
    EXPECT_EQ(r->counters.edge_tasks, lone->counters.edge_tasks);
    EXPECT_EQ(r->counters.visited_tasks, lone->counters.visited_tasks);
    EXPECT_EQ(r->counters.rounds, lone->counters.rounds);
    EXPECT_EQ(r->counters.results, lone->counters.results);
    EXPECT_EQ(r->counters.max_buffer_entries, lone->counters.max_buffer_entries);
  }
}

// A query's embedding callback never runs on two threads at once, though its
// items match on several: other submitters' threads claim its items while
// they wait for their own.
TEST(DeviceExecutorTest, EmbeddingCallbackIsSerializedPerQuery) {
  DeviceOptions opts = SmallDeviceOptions();
  opts.batch_window_seconds = 0;
  opts.max_batch_items = 8;  // a round can hold all of a query's items
  const SplitPlan s = RecordSplitPlan(opts);
  ASSERT_GT(s.compiled.fpga.size(), 1u);
  DeviceExecutor device(opts);

  std::atomic<int> running{0};
  std::atomic<int> max_running{0};
  std::atomic<std::uint64_t> calls{0};
  FastRunOptions watched = s.run;
  watched.store_limit = 0;
  watched.embedding_callback = [&](std::span<const VertexId>) {
    const int now = running.fetch_add(1) + 1;
    int seen = max_running.load();
    while (now > seen && !max_running.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::yield();  // widen the window an overlap would show in
    running.fetch_sub(1);
    calls.fetch_add(1);
  };

  std::atomic<bool> done{false};
  std::atomic<int> load_failures{0};
  std::vector<std::thread> load;
  for (int i = 0; i < 2; ++i) {
    load.emplace_back([&, queue = device.OpenQueue()] {
      while (!done.load()) {
        device::DevicePlacement placement(queue);
        if (!RunFast(s.q, s.g, s.run, &placement, &s.compiled).ok()) {
          load_failures.fetch_add(1);
        }
      }
    });
  }
  constexpr int kRuns = 4;
  const auto queue = device.OpenQueue();
  for (int i = 0; i < kRuns; ++i) {
    device::DevicePlacement placement(queue);
    const StatusOr<FastRunResult> r =
        RunFast(s.q, s.g, watched, &placement, &s.compiled);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->embeddings, BruteForceCount(s.q, s.g));
  }
  done.store(true);
  for (auto& t : load) t.join();

  EXPECT_EQ(load_failures.load(), 0);
  EXPECT_EQ(max_running.load(), 1);
  EXPECT_EQ(calls.load(), kRuns * BruteForceCount(s.q, s.g));
}

// Up to two rounds are open at once: while query A's one-item round is
// stuck in A's callback, query B's round opens and a worker waiting in
// FinishQuery matches it. The rounds still retire, and number, in order.
TEST(DeviceExecutorTest, NextRoundMatchesWhileARoundIsStillMatching) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);

  DeviceOptions opts = SmallDeviceOptions();
  opts.batch_window_seconds = 0;
  opts.max_batch_items = 1;  // one round per item
  DeviceExecutor device(opts);

  std::mutex mu;
  std::condition_variable cv;
  bool a_matching = false;
  bool b_matched = false;
  bool release_a = false;
  ResultCollector a_collector;
  a_collector.SetCallback([&](std::span<const VertexId>) {
    std::unique_lock<std::mutex> lock(mu);
    a_matching = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release_a; });
  });
  ResultCollector b_collector;
  b_collector.SetCallback([&](std::span<const VertexId>) {
    std::lock_guard<std::mutex> lock(mu);
    b_matched = true;
    cv.notify_all();
  });

  const auto queue = device.OpenQueue();
  device.HoldRounds();
  auto a = device.BeginQuery(queue, plan.order, &a_collector, nullptr);
  auto b = device.BeginQuery(queue, plan.order, &b_collector, nullptr);
  ASSERT_TRUE(device.EnqueuePartition(a, CompilePartition(plan.cst)).ok());
  ASSERT_TRUE(device.EnqueuePartition(b, CompilePartition(plan.cst)).ok());
  device.ReleaseRounds();
  DeviceQueryResult a_r;
  DeviceQueryResult b_r;
  std::thread a_thread([&] { a_r = device.FinishQuery(a); });
  std::thread b_thread([&] { b_r = device.FinishQuery(b); });
  {
    // Bounded, so a device that holds B's round back fails instead of hanging.
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return a_matching && b_matched; }))
        << "A matching: " << a_matching << ", B matched: " << b_matched;
    release_a = true;
  }
  cv.notify_all();
  a_thread.join();
  b_thread.join();

  ASSERT_TRUE(a_r.status.ok());
  ASSERT_TRUE(b_r.status.ok());
  EXPECT_EQ(a_r.embeddings, BruteForceCount(q, g));
  EXPECT_EQ(b_r.embeddings, BruteForceCount(q, g));
  EXPECT_EQ(a_r.first_round, 1u);
  EXPECT_EQ(b_r.first_round, 2u);
  EXPECT_EQ(device.stats().rounds, 2u);
}

// Rounds overlap on the device, but the timeline's device track does not:
// its spans come in round order, one after another, so their summed
// duration over a window stays a share of it.
TEST(DeviceExecutorTest, TimelineRoundsAreOrderedAndDisjoint) {
  DeviceOptions opts = SmallDeviceOptions();
  opts.batch_window_seconds = 0;
  opts.max_batch_items = 1;  // each replay queues several full rounds
  const SplitPlan s = RecordSplitPlan(opts);
  ASSERT_GT(s.compiled.fpga.size(), 1u);
  DeviceExecutor device(opts);

  constexpr int kThreads = 3;
  constexpr int kReplaysPerThread = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, queue = device.OpenQueue()] {
      for (int i = 0; i < kReplaysPerThread; ++i) {
        device::DevicePlacement placement(queue);
        const StatusOr<FastRunResult> r =
            RunFast(s.q, s.g, s.run, &placement, &s.compiled);
        if (!r.ok() || r->embeddings != BruteForceCount(s.q, s.g)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);

  const std::vector<obs::TimelineRound> rounds = device.recent_rounds();
  ASSERT_EQ(rounds.size(), device.stats().rounds);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i].round, i + 1);
    EXPECT_GE(rounds[i].duration_seconds, 0.0);
    if (i == 0) continue;
    const double prev_end =
        rounds[i - 1].start_seconds + rounds[i - 1].duration_seconds;
    EXPECT_GE(rounds[i].start_seconds, prev_end - 1e-9)  // 1 ns of rounding
        << "round " << rounds[i].round << " starts before round "
        << rounds[i - 1].round << " ends";
  }
}

// Many submitters hammering one executor: every query's counts must come out
// right regardless of how rounds interleave. Primarily a TSan target.
TEST(DeviceExecutorTest, ConcurrentSubmittersAllMatchCorrectly) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);
  const std::uint64_t expected = BruteForceCount(q, g);

  DeviceOptions opts = SmallDeviceOptions();
  opts.batch_window_seconds = 1e-4;
  opts.max_batch_items = 3;
  DeviceExecutor device(opts);

  FastRunOptions run;
  run.fpga = opts.fpga;
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 8;
  const std::shared_ptr<DeviceQueue> queues[] = {device.OpenQueue(),
                                                 device.OpenQueue()};
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto r = RunCstOnDevice(queues[t % 2], plan.cst, plan.order, run);
        if (!r.ok() || r->embeddings != expected) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : submitters) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(device.stats().queries,
            static_cast<std::uint64_t>(kThreads * kQueriesPerThread));
}

}  // namespace
}  // namespace fast
