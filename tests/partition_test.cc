#include "cst/partition.h"

#include <gtest/gtest.h>

#include <set>

#include "core/cpu_matcher.h"
#include "cst/workload.h"
#include "test_util.h"

namespace fast {
namespace {

using testing::PaperDataGraph;
using testing::PaperQuery;
using testing::SmallLdbcGraph;

MatchingOrder PaperOrder() {
  MatchingOrder order;
  order.root = 0;
  order.order = {0, 1, 2, 3};
  return order;
}

TEST(PartitionTest, NoPartitionNeededWhenUnderThresholds) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PartitionConfig config;  // huge defaults
  PartitionStats stats;
  auto parts = PartitionCstToVector(cst, PaperOrder(), config, &stats).value();
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(stats.num_partitions, 1u);
  EXPECT_EQ(parts[0].SizeWords(), cst.SizeWords());
}

TEST(PartitionTest, RejectsZeroThresholds) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PartitionConfig config;
  config.max_size_words = 0;
  EXPECT_FALSE(PartitionCstToVector(cst, PaperOrder(), config, nullptr).ok());
}

TEST(PartitionTest, RejectsMismatchedOrder) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  MatchingOrder bad;
  bad.root = 1;
  bad.order = {1, 0, 2, 3};
  PartitionConfig config;
  EXPECT_FALSE(PartitionCstToVector(cst, bad, config, nullptr).ok());
}

TEST(PartitionTest, SplitsRootCandidatesDisjointly) {
  // Force a split at the root (Example 3).
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PartitionConfig config;
  config.max_size_words = cst.SizeWords() - 1;  // must split at least once
  PartitionStats stats;
  auto parts = PartitionCstToVector(cst, PaperOrder(), config, &stats).value();
  ASSERT_GE(parts.size(), 2u);
  // Root candidate sets are pairwise disjoint and cover the original.
  std::multiset<VertexId> roots;
  for (const auto& p : parts) {
    EXPECT_TRUE(p.Validate().ok());
    for (VertexId v : p.Candidates(0)) roots.insert(v);
  }
  std::multiset<VertexId> expected(cst.Candidates(0).begin(), cst.Candidates(0).end());
  EXPECT_EQ(roots, expected);
}

TEST(PartitionTest, PartitionsRespectSizeThreshold) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PartitionConfig config;
  config.max_size_words = cst.SizeWords() / 2 + 8;
  PartitionStats stats;
  auto parts = PartitionCstToVector(cst, PaperOrder(), config, &stats).value();
  for (const auto& p : parts) {
    EXPECT_LE(p.SizeWords(), config.max_size_words);
  }
  EXPECT_EQ(stats.num_oversized, 0u);
  EXPECT_EQ(stats.num_partitions, parts.size());
  EXPECT_GT(stats.num_recursive_calls, 0u);
}

TEST(PartitionTest, DegreeThresholdForcesSplit) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  ASSERT_GT(cst.MaxAdjacencyDegree(), 1u);
  PartitionConfig config;
  config.max_degree = 1;
  auto parts = PartitionCstToVector(cst, PaperOrder(), config, nullptr).value();
  EXPECT_GT(parts.size(), 1u);
}

TEST(PartitionTest, EmbeddingCountPreservedAcrossPartitions) {
  // The union of partition search spaces equals the original search space,
  // with no duplicates (Example 3's "no repeated results").
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  ResultCollector whole_collector(64);
  const std::uint64_t whole =
      MatchCstOnCpu(cst, PaperOrder(), &whole_collector).value();

  for (std::size_t budget : {cst.SizeWords() - 1, cst.SizeWords() / 2, std::size_t{24}}) {
    PartitionConfig config;
    config.max_size_words = budget;
    auto parts = PartitionCstToVector(cst, PaperOrder(), config, nullptr).value();
    std::uint64_t total = 0;
    ResultCollector part_collector(64);
    for (const auto& p : parts) {
      total += MatchCstOnCpu(p, PaperOrder(), &part_collector).value();
    }
    EXPECT_EQ(total, whole) << "budget=" << budget;
    // Same embedding sets, not just counts.
    EXPECT_EQ(testing::ToSet(part_collector.stored()),
              testing::ToSet(whole_collector.stored()));
  }
}

TEST(PartitionTest, FixedKProducesAtLeastKParts) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PartitionConfig config;
  config.max_size_words = cst.SizeWords() - 1;
  config.fixed_k = 2;
  PartitionStats stats;
  auto parts = PartitionCstToVector(cst, PaperOrder(), config, &stats).value();
  EXPECT_GE(parts.size(), 2u);
}

TEST(PartitionTest, SinkErrorStopsPartitioning) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PartitionConfig config;
  config.max_size_words = 24;
  int calls = 0;
  Status s = PartitionCst(
      cst, PaperOrder(), config,
      [&](Cst) {
        ++calls;
        return Status::Internal("stop");
      },
      nullptr);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(calls, 1);
}

TEST(PartitionTest, TinyBudgetTerminatesViaOversizedEmission) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PartitionConfig config;
  config.max_size_words = 1;  // impossible to satisfy
  PartitionStats stats;
  auto parts = PartitionCstToVector(cst, PaperOrder(), config, &stats).value();
  EXPECT_GT(parts.size(), 0u);
  EXPECT_GT(stats.num_oversized, 0u);
}

// A partition is sized exactly: a 1/k split that kept its parent's capacity
// would hold up to k times its footprint for as long as a plan is cached.
TEST(PartitionTest, PartitionArraysHaveExactCapacity) {
  const Graph g = SmallLdbcGraph();
  std::size_t split = 0;
  for (int qi = 0; qi < kNumLdbcQueries; ++qi) {
    const QueryGraph q = LdbcQuery(qi).value();
    auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
    Cst cst = BuildCst(q, g, order.root).value();
    PartitionConfig config;
    config.max_size_words = 512;  // a small BRAM
    auto parts = PartitionCstToVector(cst, order, config).value();
    if (parts.size() > 1) ++split;
    const std::size_t slots = cst.layout().edges().size();
    for (const Cst& p : parts) {
      for (std::size_t s = 0; s < slots; ++s) {
        const CstEdgeList& el = p.EdgeList(static_cast<int>(s));
        EXPECT_EQ(el.targets.capacity(), el.targets.size())
            << q.name() << " slot " << s;
        EXPECT_EQ(el.offsets.capacity(), el.offsets.size())
            << q.name() << " slot " << s;
      }
    }
  }
  EXPECT_GE(split, 5u);  // the budget really splits most queries
}

// Property sweep over LDBC queries and budgets: partitioning preserves the
// exact embedding count and respects thresholds.
class PartitionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(PartitionPropertyTest, CountPreservedAndThresholdRespected) {
  const auto [query_index, divisor] = GetParam();
  Graph g = SmallLdbcGraph();
  QueryGraph q = LdbcQuery(query_index).value();
  auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  Cst cst = BuildCst(q, g, order.root).value();

  const std::uint64_t whole = MatchCstOnCpu(cst, order, nullptr).value();

  PartitionConfig config;
  config.max_size_words = std::max<std::size_t>(cst.SizeWords() / divisor, 16);
  PartitionStats stats;
  auto parts = PartitionCstToVector(cst, order, config, &stats).value();

  std::uint64_t total = 0;
  for (const auto& p : parts) {
    ASSERT_TRUE(p.Validate().ok());
    if (stats.num_oversized == 0) {
      EXPECT_LE(p.SizeWords(), config.max_size_words);
    }
    total += MatchCstOnCpu(p, order, nullptr).value();
  }
  EXPECT_EQ(total, whole) << q.name() << " divisor=" << divisor;
}

INSTANTIATE_TEST_SUITE_P(
    QueriesAndBudgets, PartitionPropertyTest,
    ::testing::Combine(::testing::Values(0, 2, 3, 5, 8),
                       ::testing::Values(std::size_t{2}, std::size_t{5},
                                         std::size_t{17})));

}  // namespace
}  // namespace fast
