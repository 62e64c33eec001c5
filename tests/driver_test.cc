#include "core/driver.h"

#include <gtest/gtest.h>

#include "obs/profiler.h"
#include "test_util.h"

namespace fast {
namespace {

using testing::BruteForceCount;
using testing::PaperDataGraph;
using testing::PaperQuery;
using testing::SmallLdbcGraph;

TEST(DriverTest, PaperExampleEndToEnd) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  auto result = RunFast(q, g).value();
  EXPECT_EQ(result.embeddings, 2u);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GT(result.kernel_seconds, 0.0);
  EXPECT_GE(result.partition_stats.num_partitions, 1u);
}

TEST(DriverTest, StoresSampleEmbeddings) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  FastRunOptions options;
  options.store_limit = 10;
  auto result = RunFast(q, g, options).value();
  EXPECT_EQ(result.sample_embeddings.size(), 2u);
}

// Inline matching publishes the same "kernel" stage as the device executor,
// below the inline placement's "match" stage. The embedding callback runs
// inside RunKernel, so sampling there is exact. On the miss path the kernel
// runs inside Alg. 2's sink, below "partition"; a compiled-plan run does no
// partitioning, so its kernel sits right below "match".
TEST(DriverTest, InlineKernelRunsInKernelProfilerStage) {
  obs::Profiler::RegisterCurrentThread("driver-test", obs::ThreadKind::kWorker);
  obs::Profiler* profiler = obs::Profiler::Default();
  FastRunOptions options;
  options.embedding_callback = [&](std::span<const VertexId>) {
    profiler->SampleOnce();
  };
  const QueryGraph q = PaperQuery();
  const Graph g = PaperDataGraph();
  const MatchingOrder order =
      ComputeMatchingOrder(q, g, options.order_policy).value();
  const Cst cst = BuildCst(q, g, order.root).value();
  const auto kernel_samples = [&](const obs::ProfileSnapshot& before,
                                  const std::string& path) {
    const obs::ProfileSnapshot delta =
        obs::DeltaProfile(before, profiler->Snapshot());
    std::uint64_t samples = 0;
    for (const auto& b : delta.buckets) {
      if (b.kind == obs::ThreadKind::kWorker && b.path == path) {
        samples = b.samples;
      }
    }
    return samples;
  };

  CompiledPlan plan;
  obs::ProfileSnapshot before = profiler->Snapshot();
  ASSERT_EQ(RunFastWithCst(cst, order, options, 0.0, &plan).value().embeddings,
            2u);
  EXPECT_EQ(kernel_samples(before, "match;partition;kernel"), 2u);

  before = profiler->Snapshot();
  ASSERT_EQ(RunFast(q, g, options, nullptr, &plan).value().embeddings, 2u);
  EXPECT_EQ(kernel_samples(before, "match;kernel"), 2u);
  EXPECT_EQ(kernel_samples(before, "match;partition;kernel"), 0u);
}

TEST(DriverTest, RejectsBadDelta) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  FastRunOptions options;
  options.cpu_share_delta = 1.5;
  EXPECT_FALSE(RunFast(q, g, options).ok());
  options.cpu_share_delta = -0.1;
  EXPECT_FALSE(RunFast(q, g, options).ok());
}

TEST(DriverTest, RejectsInvalidFpgaConfig) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  FastRunOptions options;
  options.fpga.clock_mhz = -1;
  EXPECT_FALSE(RunFast(q, g, options).ok());
}

TEST(DriverTest, ExplicitOrderIsUsed) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  FastRunOptions options;
  MatchingOrder order;
  order.root = 0;
  order.order = {0, 2, 1, 3};
  options.explicit_order = order;
  auto result = RunFast(q, g, options).value();
  EXPECT_EQ(result.order.order, order.order);
  EXPECT_EQ(result.embeddings, 2u);
}

TEST(DriverTest, RejectsInvalidExplicitOrder) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  FastRunOptions options;
  MatchingOrder order;
  order.root = 0;
  order.order = {0, 3, 2, 1};  // u3 before its parent u1
  options.explicit_order = order;
  EXPECT_FALSE(RunFast(q, g, options).ok());
}

class DriverVariantTest : public ::testing::TestWithParam<FastVariant> {};

TEST_P(DriverVariantTest, AllVariantsProduceExactCounts) {
  Graph g = SmallLdbcGraph();
  for (int qi : {0, 2, 5, 8}) {
    QueryGraph q = LdbcQuery(qi).value();
    FastRunOptions options;
    options.variant = GetParam();
    auto result = RunFast(q, g, options).value();
    EXPECT_EQ(result.embeddings, BruteForceCount(q, g)) << q.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, DriverVariantTest,
                         ::testing::Values(FastVariant::kDram, FastVariant::kBasic,
                                           FastVariant::kTask, FastVariant::kSep),
                         [](const auto& info) {
                           std::string n = FastVariantName(info.param);
                           return n.substr(n.find('-') + 1);
                         });

TEST(DriverTest, DramVariantSkipsPartitioning) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  FastRunOptions options;
  options.variant = FastVariant::kDram;
  auto result = RunFast(q, g, options).value();
  EXPECT_EQ(result.partition_stats.num_partitions, 1u);
  EXPECT_EQ(result.embeddings, 2u);
}

TEST(DriverTest, DramSlowerThanBasicOnSameWorkload) {
  Graph g = SmallLdbcGraph(0.2);
  QueryGraph q = LdbcQuery(8).value();
  FastRunOptions options;
  options.variant = FastVariant::kDram;
  const double dram = RunFast(q, g, options).value().kernel_seconds;
  options.variant = FastVariant::kBasic;
  const double basic = RunFast(q, g, options).value().kernel_seconds;
  EXPECT_GT(dram, basic);
}

TEST(DriverTest, CpuShareProducesSameCountAndNonzeroShare) {
  Graph g = SmallLdbcGraph(0.2);
  QueryGraph q = LdbcQuery(2).value();

  FastRunOptions no_share;
  // Force many partitions so sharing has something to split.
  no_share.partition.max_size_words = 2048;
  no_share.partition.max_degree = 64;
  const auto base = RunFast(q, g, no_share).value();

  FastRunOptions share = no_share;
  share.cpu_share_delta = 0.2;
  const auto shared = RunFast(q, g, share).value();

  EXPECT_EQ(shared.embeddings, base.embeddings);
  if (shared.partition_stats.num_partitions > 1) {
    EXPECT_GT(shared.cpu_partitions, 0u);
    EXPECT_GT(shared.cpu_share_fraction, 0.0);
    EXPECT_LE(shared.cpu_share_fraction, 0.5);
  }
  EXPECT_EQ(shared.fpga_partitions, shared.partition_stats.num_partitions);
  EXPECT_EQ(shared.cpu_partitions, shared.partition_stats.num_cpu_offloaded);
}

TEST(DriverTest, SmallBramForcesMultiplePartitions) {
  Graph g = SmallLdbcGraph(0.2);
  QueryGraph q = LdbcQuery(2).value();
  FastRunOptions options;
  options.partition.max_size_words = 1024;
  options.partition.max_degree = 64;
  auto result = RunFast(q, g, options).value();
  EXPECT_GT(result.partition_stats.num_partitions, 1u);
  EXPECT_EQ(result.embeddings, BruteForceCount(q, g));
}

TEST(DerivePartitionConfigTest, DerivesFromDeviceWhenUnset) {
  FpgaConfig fpga;
  PartitionConfig requested{.max_size_words = 0, .max_degree = 0, .fixed_k = 0};
  PartitionConfig derived = DerivePartitionConfig(fpga, 5, requested);
  EXPECT_GT(derived.max_size_words, 0u);
  EXPECT_LT(derived.max_size_words, fpga.bram_words);
  EXPECT_EQ(derived.max_degree, fpga.port_max);
}

TEST(DerivePartitionConfigTest, ExplicitValuesPassThrough) {
  FpgaConfig fpga;
  PartitionConfig requested{.max_size_words = 777, .max_degree = 33, .fixed_k = 4};
  PartitionConfig derived = DerivePartitionConfig(fpga, 5, requested);
  EXPECT_EQ(derived.max_size_words, 777u);
  EXPECT_EQ(derived.max_degree, 33u);
  EXPECT_EQ(derived.fixed_k, 4);
}

// ---- Multi-FPGA (Sec. VII-E) ----

TEST(MultiFpgaTest, RejectsZeroDevices) {
  EXPECT_FALSE(RunMultiFpga(PaperQuery(), PaperDataGraph(), 0).ok());
}

TEST(MultiFpgaTest, SingleDeviceMatchesSingleRunCount) {
  Graph g = SmallLdbcGraph();
  QueryGraph q = LdbcQuery(2).value();
  auto single = RunMultiFpga(q, g, 1).value();
  EXPECT_EQ(single.embeddings, BruteForceCount(q, g));
  EXPECT_EQ(single.device_seconds.size(), 1u);
}

TEST(MultiFpgaTest, MoreDevicesNeverSlower) {
  Graph g = SmallLdbcGraph(0.2);
  QueryGraph q = LdbcQuery(8).value();
  FastRunOptions options;
  options.partition.max_size_words = 1024;
  options.partition.max_degree = 64;
  auto one = RunMultiFpga(q, g, 1, options).value();
  auto four = RunMultiFpga(q, g, 4, options).value();
  EXPECT_EQ(one.embeddings, four.embeddings);
  ASSERT_EQ(four.device_seconds.size(), 4u);
  const double busiest1 =
      *std::max_element(one.device_seconds.begin(), one.device_seconds.end());
  const double busiest4 =
      *std::max_element(four.device_seconds.begin(), four.device_seconds.end());
  EXPECT_LE(busiest4, busiest1 + 1e-12);
}

// Golden multi-card placement: partition count, embeddings and each card's
// simulated busy seconds, pinned bit for bit. Alg. 2, the least-estimated-
// workload assignment and the per-partition kernel + PCIe model are all
// deterministic, so any drift in how partitions reach the cards shows here.
TEST(MultiFpgaTest, GoldenPartitionsEmbeddingsAndCardSeconds) {
  struct Golden {
    int query;
    std::size_t cards;
    std::size_t num_partitions;
    std::uint64_t embeddings;
    std::vector<double> device_seconds;
  };
  const std::vector<Golden> golden = {
      {2, 1, 21, 1698, {0.00011576616666666666}},
      {2, 2, 21, 1698, {5.6353500000000002e-05, 5.9412666666666661e-05}},
      {2, 4, 21, 1698,
       {2.4512666666666667e-05, 2.9941833333333332e-05, 3.3204333333333337e-05,
        2.8107333333333331e-05}},
      {5, 1, 5, 84, {1.3331999999999999e-05}},
      {5, 2, 5, 84, {1.1899833333333333e-05, 1.4321666666666668e-06}},
      {5, 4, 5, 84,
       {9.9839999999999996e-06, 1.4321666666666668e-06, 6.7250000000000002e-07,
        1.2433333333333334e-06}},
      {8, 1, 41, 6956, {0.0003355446666666666}},
      {8, 2, 41, 6956, {0.00019199383333333339, 0.00014355083333333332}},
      {8, 4, 41, 6956,
       {9.2885833333333331e-05, 6.3582166666666662e-05, 8.839983333333332e-05,
        9.0676833333333326e-05}},
  };
  const Graph g = SmallLdbcGraph(0.2);
  FastRunOptions options;
  options.partition.max_size_words = 1024;
  for (const Golden& want : golden) {
    SCOPED_TRACE("q" + std::to_string(want.query) + " on " +
                 std::to_string(want.cards) + " cards");
    const QueryGraph q = LdbcQuery(want.query).value();
    auto r = RunMultiFpga(q, g, want.cards, options);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->num_partitions, want.num_partitions);
    EXPECT_EQ(r->embeddings, want.embeddings);
    ASSERT_EQ(r->device_seconds.size(), want.cards);
    for (std::size_t c = 0; c < want.cards; ++c) {
      EXPECT_EQ(r->device_seconds[c], want.device_seconds[c]) << "card " << c;
    }
  }
}

TEST(MultiFpgaTest, WorkSpreadsAcrossDevices) {
  Graph g = SmallLdbcGraph(0.2);
  QueryGraph q = LdbcQuery(2).value();
  FastRunOptions options;
  options.partition.max_size_words = 1024;
  options.partition.max_degree = 64;
  auto r = RunMultiFpga(q, g, 2, options).value();
  if (r.num_partitions >= 2) {
    EXPECT_GT(r.device_seconds[0], 0.0);
    EXPECT_GT(r.device_seconds[1], 0.0);
  }
}

}  // namespace
}  // namespace fast
