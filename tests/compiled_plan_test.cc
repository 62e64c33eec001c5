// Tests for compiled plans (core/compiled_plan.h) and the plan cache's hit
// path: a request served from a cached plan must return exactly what the
// miss that recorded the plan returned — embeddings, kernel counters,
// simulated kernel seconds, partition stats and the Alg. 3 split — under
// inline placement and on the shared device, each with and without a CPU
// share.
// After a graph delta, the next request rebuilds the plan and matches brute
// force on the new snapshot.

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/compiled_plan.h"
#include "core/driver.h"
#include "device/device_executor.h"
#include "graph/graph_delta.h"
#include "ldbc/ldbc.h"
#include "service/match_service.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace fast {
namespace {

using service::MatchService;
using service::RequestOptions;
using service::ServiceOptions;
using testing::BruteForceCount;
using testing::SmallLdbcGraph;

enum class Placement { kInline, kInlineShare, kDevice, kDeviceShare };

std::string PlacementName(Placement p) {
  switch (p) {
    case Placement::kInline: return "Inline";
    case Placement::kInlineShare: return "InlineShare";
    case Placement::kDevice: return "Device";
    case Placement::kDeviceShare: return "DeviceShare";
  }
  return "?";
}

// A small partition budget, so most LDBC queries split into many partitions.
ServiceOptions PlanServiceOptions(Placement placement) {
  ServiceOptions options;
  options.num_workers = 2;
  options.plan_cache_capacity = 16;
  options.run.partition.max_size_words = 512;
  options.run.fpga.max_new_partials = 1024;
  if (placement == Placement::kInlineShare ||
      placement == Placement::kDeviceShare) {
    options.run.cpu_share_delta = 0.5;
  }
  if (placement == Placement::kDevice || placement == Placement::kDeviceShare) {
    options.device_mode = true;
    options.device.batch_window_seconds = 0;
  }
  return options;
}

void ExpectSameRun(const FastRunResult& miss, const FastRunResult& hit) {
  EXPECT_EQ(hit.embeddings, miss.embeddings);
  EXPECT_EQ(hit.sample_embeddings, miss.sample_embeddings);
  EXPECT_EQ(hit.order.root, miss.order.root);
  EXPECT_EQ(hit.order.order, miss.order.order);

  EXPECT_EQ(hit.counters.partial_results, miss.counters.partial_results);
  EXPECT_EQ(hit.counters.edge_tasks, miss.counters.edge_tasks);
  EXPECT_EQ(hit.counters.visited_tasks, miss.counters.visited_tasks);
  EXPECT_EQ(hit.counters.rounds, miss.counters.rounds);
  EXPECT_EQ(hit.counters.results, miss.counters.results);
  EXPECT_EQ(hit.counters.max_buffer_entries, miss.counters.max_buffer_entries);
  EXPECT_EQ(hit.kernel_seconds, miss.kernel_seconds);  // bit-identical

  const PartitionStats& a = miss.partition_stats;
  const PartitionStats& b = hit.partition_stats;
  EXPECT_EQ(b.num_partitions, a.num_partitions);
  EXPECT_EQ(b.num_recursive_calls, a.num_recursive_calls);
  EXPECT_EQ(b.total_size_words, a.total_size_words);
  EXPECT_EQ(b.max_partition_words, a.max_partition_words);
  EXPECT_EQ(b.num_oversized, a.num_oversized);
  EXPECT_EQ(b.num_cpu_offloaded, a.num_cpu_offloaded);

  EXPECT_EQ(hit.cpu_partitions, miss.cpu_partitions);
  EXPECT_EQ(hit.fpga_partitions, miss.fpga_partitions);
  EXPECT_EQ(hit.cpu_share_fraction, miss.cpu_share_fraction);
}

class PlanHitTest
    : public ::testing::TestWithParam<std::tuple<int, Placement>> {};

TEST_P(PlanHitTest, HitReturnsExactlyWhatTheMissReturned) {
  const auto [query_index, placement] = GetParam();
  const Graph g = SmallLdbcGraph();
  const QueryGraph q = LdbcQuery(query_index).value();
  MatchService svc(g, PlanServiceOptions(placement));

  RequestOptions opts;
  opts.store_limit = 1u << 20;  // every embedding, in discovery order
  auto miss = svc.SubmitAndWait(q, opts);
  ASSERT_TRUE(miss.ok()) << miss.status();
  ASSERT_TRUE(miss->status.ok()) << miss->status;
  EXPECT_FALSE(miss->cache_hit);
  EXPECT_EQ(miss->run.embeddings, miss->run.sample_embeddings.size());

  auto hit = svc.SubmitAndWait(q, opts);
  ASSERT_TRUE(hit.ok()) << hit.status();
  ASSERT_TRUE(hit->status.ok()) << hit->status;
  EXPECT_TRUE(hit->cache_hit);
  ExpectSameRun(miss->run, hit->run);
  // Nothing was built or partitioned for the hit.
  EXPECT_EQ(hit->run.build_seconds, 0.0);
  EXPECT_EQ(hit->run.partition_seconds, 0.0);
  EXPECT_EQ(hit->plan_bytes_charged, 0u);

  if (placement == Placement::kDevice) {
    EXPECT_EQ(hit->run.cpu_partitions, 0u);
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.entries, 1u);
  EXPECT_EQ(stats.cache.bytes_in_use, miss->plan_bytes_charged);
}

INSTANTIATE_TEST_SUITE_P(
    LdbcQueriesTimesPlacements, PlanHitTest,
    ::testing::Combine(::testing::Range(0, kNumLdbcQueries),
                       ::testing::Values(Placement::kInline,
                                         Placement::kInlineShare,
                                         Placement::kDevice,
                                         Placement::kDeviceShare)),
    [](const ::testing::TestParamInfo<PlanHitTest::ParamType>& info) {
      return "q" + std::to_string(std::get<0>(info.param)) +
             PlacementName(std::get<1>(info.param));
    });

// The small budget above really does split, and the δ = 0.5 share really
// keeps partitions on the host, inline and on the device: the equivalence is
// not vacuous.
TEST(CompiledPlanTest, SmallBudgetSplitsAndSharesLdbcQueries) {
  const Graph g = SmallLdbcGraph();
  for (Placement placement : {Placement::kInlineShare, Placement::kDeviceShare}) {
    SCOPED_TRACE(PlacementName(placement));
    MatchService svc(g, PlanServiceOptions(placement));
    std::size_t split = 0;
    std::size_t shared = 0;
    std::size_t found = 0;
    for (int i = 0; i < kNumLdbcQueries; ++i) {
      auto r = svc.SubmitAndWait(LdbcQuery(i).value());
      ASSERT_TRUE(r.ok());
      if (r->run.fpga_partitions + r->run.cpu_partitions > 1) ++split;
      if (r->run.cpu_partitions > 0) ++shared;
      if (r->run.embeddings > 0) ++found;
    }
    EXPECT_GE(split, 5u);
    EXPECT_GE(shared, 5u);
    EXPECT_GE(found, 5u);
  }
}

// FAST-DRAM does not partition: its plan is the whole CST as one partition,
// inline and on the shared device alike, even under a BRAM budget the CST
// exceeds, and replaying it reproduces the recording run.
TEST(CompiledPlanTest, DramPlanIsTheWholeCst) {
  const Graph g = SmallLdbcGraph();
  const QueryGraph q = LdbcQuery(2).value();
  const MatchingOrder order =
      ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  const Cst cst = BuildCst(q, g, order.root).value();
  FastRunOptions options;
  options.variant = FastVariant::kDram;
  options.store_limit = 1u << 20;
  options.partition.max_size_words = 512;
  ASSERT_GT(cst.SizeWords(), options.partition.max_size_words);

  device::DeviceOptions device_options;
  device_options.fpga = options.fpga;
  device_options.variant = FastVariant::kDram;
  device_options.batch_window_seconds = 0;
  device::DeviceExecutor device(device_options);
  const auto queue = device.OpenQueue();
  device::DevicePlacement on_device(queue);
  for (CardPlacement* placement : {static_cast<CardPlacement*>(nullptr),
                                   static_cast<CardPlacement*>(&on_device)}) {
    SCOPED_TRACE(placement == nullptr ? "inline" : "device");
    CompiledPlan plan;
    auto miss = RunFastWithCst(cst, order, options, 0.0, &plan, placement);
    ASSERT_TRUE(miss.ok()) << miss.status();
    ASSERT_EQ(plan.fpga.size(), 1u);
    EXPECT_EQ(plan.fpga[0].cst->SizeWords(), cst.SizeWords());
    EXPECT_EQ(plan.fpga[0].wire_bytes, CstWireBytes(cst));
    EXPECT_EQ(plan.SizeBytes(), cst.SizeBytes());
    EXPECT_TRUE(plan.cpu.empty());

    auto hit = RunFast(q, g, options, placement, &plan);
    ASSERT_TRUE(hit.ok()) << hit.status();
    ExpectSameRun(*miss, *hit);
    EXPECT_EQ(hit->embeddings, BruteForceCount(q, g));
  }
}

class PlanRebuildTest : public ::testing::TestWithParam<Placement> {};

TEST_P(PlanRebuildTest, DeltaForcesRebuildThatMatchesBruteForce) {
  const Graph g = SmallLdbcGraph();
  MatchService svc(g, PlanServiceOptions(GetParam()));
  Rng rng(11);
  for (int i : {0, 2, 5}) {
    const QueryGraph q = LdbcQuery(i).value();
    ASSERT_TRUE(svc.SubmitAndWait(q).ok());
    auto hit = svc.SubmitAndWait(q);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit->cache_hit);

    const Graph before = *svc.snapshot().graph;
    ASSERT_TRUE(svc.ApplyDelta(RandomChurnDelta(before, 64, rng)).ok());
    const Graph& after = *svc.snapshot().graph;
    const std::uint64_t want = BruteForceCount(q, after);

    auto rebuilt = svc.SubmitAndWait(q);
    ASSERT_TRUE(rebuilt.ok());
    ASSERT_TRUE(rebuilt->status.ok()) << rebuilt->status;
    EXPECT_FALSE(rebuilt->cache_hit) << q.name();
    EXPECT_EQ(rebuilt->run.embeddings, want) << q.name();

    auto rehit = svc.SubmitAndWait(q);
    ASSERT_TRUE(rehit.ok());
    EXPECT_TRUE(rehit->cache_hit) << q.name();
    EXPECT_EQ(rehit->run.embeddings, want) << q.name();
    EXPECT_EQ(rehit->graph_epoch, rebuilt->graph_epoch);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Placements, PlanRebuildTest,
    ::testing::Values(Placement::kInline, Placement::kInlineShare,
                      Placement::kDevice, Placement::kDeviceShare),
    [](const ::testing::TestParamInfo<Placement>& info) {
      return PlacementName(info.param);
    });

}  // namespace
}  // namespace fast
