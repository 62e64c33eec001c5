#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cpu_matcher.h"
#include "core/kernel.h"
#include "query/matching_order.h"
#include "simd/intersect.h"
#include "test_util.h"

// End-to-end equivalence across kernel levels: for every available SIMD/SWAR
// level, BuildCst and MatchCstOnCpu must produce a bit-identical CST and
// identical match counts/embeddings to the scalar reference on the seed
// datasets, and RunKernel (whose Edge Validator intersects through the
// active level) must reproduce the scalar run's counters, round trace and
// embeddings in emission order. This is the CI gate behind the --simd flag.

namespace fast {
namespace {

using testing::BruteForceCount;
using testing::PaperDataGraph;
using testing::PaperQuery;
using testing::SmallLdbcGraph;
using testing::ToSet;

// One RunKernel pass: what the cycle model sees plus the emission order.
struct KernelPass {
  KernelCounters counters;
  std::vector<RoundWork> trace;
  std::vector<Embedding> embeddings;
};

// The serving default and a tiny N_o that forces the resume-cursor path.
constexpr std::uint32_t kKernelBatchSizes[] = {FpgaConfig{}.max_new_partials, 3};

struct MatchResult {
  Cst cst;
  std::uint64_t count = 0;
  std::vector<Embedding> embeddings;
  std::vector<KernelPass> kernel;  // one per kKernelBatchSizes entry
};

MatchResult RunWithLevel(simd::Level level, const QueryGraph& q, const Graph& g) {
  EXPECT_TRUE(simd::SetActive(level));
  MatchResult r;
  const MatchingOrder order =
      ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  r.cst = BuildCst(q, g, order.root).value();
  EXPECT_TRUE(r.cst.Validate().ok()) << simd::LevelName(level);
  ResultCollector collector(1 << 20);
  r.count = MatchCstOnCpu(r.cst, order, &collector).value();
  r.embeddings = collector.stored();
  for (std::uint32_t no : kKernelBatchSizes) {
    FpgaConfig config;
    config.max_new_partials = no;
    ResultCollector kernel_collector(1 << 20);
    KernelPass& pass = r.kernel.emplace_back();
    pass.counters =
        RunKernel(r.cst, order, config, &kernel_collector, &pass.trace).value().counters;
    pass.embeddings = kernel_collector.stored();
  }
  return r;
}

void ExpectIdenticalKernelPass(const KernelPass& a, const KernelPass& b,
                               const QueryGraph& q, std::uint32_t no,
                               simd::Level level) {
  SCOPED_TRACE(q.name() + " N_o=" + std::to_string(no) + " under " +
               simd::LevelName(level));
  EXPECT_EQ(b.counters.partial_results, a.counters.partial_results);
  EXPECT_EQ(b.counters.edge_tasks, a.counters.edge_tasks);
  EXPECT_EQ(b.counters.visited_tasks, a.counters.visited_tasks);
  EXPECT_EQ(b.counters.rounds, a.counters.rounds);
  EXPECT_EQ(b.counters.results, a.counters.results);
  EXPECT_EQ(b.counters.max_buffer_entries, a.counters.max_buffer_entries);
  ASSERT_EQ(b.trace.size(), a.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(b.trace[i].new_partials, a.trace[i].new_partials) << "round " << i;
    EXPECT_EQ(b.trace[i].backward_groups, a.trace[i].backward_groups) << "round " << i;
  }
  EXPECT_EQ(b.embeddings, a.embeddings);  // same embeddings, same order
}

void ExpectIdenticalCst(const Cst& a, const Cst& b, simd::Level level) {
  ASSERT_EQ(a.NumQueryVertices(), b.NumQueryVertices());
  for (VertexId u = 0; u < a.NumQueryVertices(); ++u) {
    ASSERT_TRUE(std::ranges::equal(a.Candidates(u), b.Candidates(u)))
        << "C(" << u << ") diverges under " << simd::LevelName(level);
  }
  for (std::size_t s = 0; s < a.layout().edges().size(); ++s) {
    const auto& ea = a.EdgeList(static_cast<int>(s));
    const auto& eb = b.EdgeList(static_cast<int>(s));
    ASSERT_EQ(ea.offsets, eb.offsets)
        << "slot " << s << " offsets diverge under " << simd::LevelName(level);
    ASSERT_EQ(ea.targets, eb.targets)
        << "slot " << s << " targets diverge under " << simd::LevelName(level);
  }
}

void CheckAllLevels(const QueryGraph& q, const Graph& g,
                    const std::uint64_t* truth = nullptr) {
  const MatchResult scalar = RunWithLevel(simd::Level::kScalar, q, g);
  if (truth != nullptr) {
    EXPECT_EQ(scalar.count, *truth) << q.name();
    for (const KernelPass& pass : scalar.kernel) {
      EXPECT_EQ(pass.counters.results, *truth) << q.name();
    }
  }
  for (int i = 0; i < simd::kNumLevels; ++i) {
    const auto level = static_cast<simd::Level>(i);
    if (level == simd::Level::kScalar || !simd::LevelAvailable(level)) continue;
    const MatchResult got = RunWithLevel(level, q, g);
    ExpectIdenticalCst(scalar.cst, got.cst, level);
    EXPECT_EQ(got.count, scalar.count)
        << q.name() << " under " << simd::LevelName(level);
    EXPECT_EQ(ToSet(got.embeddings), ToSet(scalar.embeddings))
        << q.name() << " under " << simd::LevelName(level);
    for (std::size_t i = 0; i < std::size(kKernelBatchSizes); ++i) {
      ExpectIdenticalKernelPass(scalar.kernel[i], got.kernel[i], q,
                                kKernelBatchSizes[i], level);
    }
  }
  simd::SetActiveByName("auto");
}

TEST(SimdEquivalenceTest, PaperExample) {
  const std::uint64_t truth = 2;
  CheckAllLevels(PaperQuery(), PaperDataGraph(), &truth);
}

TEST(SimdEquivalenceTest, AllLdbcQueriesOnSeedGraph) {
  const Graph g = SmallLdbcGraph();
  for (int qi = 0; qi < kNumLdbcQueries; ++qi) {
    const QueryGraph q = LdbcQuery(qi).value();
    const std::uint64_t truth = BruteForceCount(q, g);
    CheckAllLevels(q, g, &truth);
  }
}

// A star forces the hub dual representation (center degree 199 > threshold
// max(64, 220/32)), so the bitmap-filtered materialization path is exercised
// and must agree with the sorted-list path.
TEST(SimdEquivalenceTest, HubBitmapPathAgrees) {
  GraphBuilder b;
  const std::size_t n = 220;
  for (std::size_t i = 0; i < n; ++i) b.AddVertex(0);
  for (VertexId v = 1; v < 200; ++v) ASSERT_TRUE(b.AddEdge(0, v).ok());
  // A few spokes interconnected so wedge counts are non-trivial.
  for (VertexId v = 1; v < 40; ++v) ASSERT_TRUE(b.AddEdge(v, v + 1).ok());
  const Graph g = std::move(b).Build().value();
  ASSERT_EQ(g.NumHubs(), 1u);
  ASSERT_FALSE(g.HubAdjacencyBitmap(0).empty());
  ASSERT_TRUE(g.HubAdjacencyBitmap(1).empty());

  GraphBuilder qb;
  for (int i = 0; i < 3; ++i) qb.AddVertex(0);
  ASSERT_TRUE(qb.AddEdge(0, 1).ok());
  ASSERT_TRUE(qb.AddEdge(1, 2).ok());
  const QueryGraph q = QueryGraph::Create(std::move(qb).Build().value()).value();
  const std::uint64_t truth = BruteForceCount(q, g);
  CheckAllLevels(q, g, &truth);
}

}  // namespace
}  // namespace fast
