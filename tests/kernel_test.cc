#include "core/kernel.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/cpu_matcher.h"
#include "cst/partition.h"
#include "query/matching_order.h"
#include "test_util.h"

namespace fast {
namespace {

using testing::BruteForceCount;
using testing::BruteForceEmbeddings;
using testing::PaperDataGraph;
using testing::PaperQuery;
using testing::SmallLdbcGraph;
using testing::ToSet;

MatchingOrder PaperOrder() {
  MatchingOrder order;
  order.root = 0;
  order.order = {0, 1, 2, 3};
  return order;
}

TEST(KernelTest, PaperExampleFindsBothEmbeddings) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  Cst cst = BuildCst(q, g, 0).value();
  ResultCollector collector(16);
  auto run = RunKernel(cst, PaperOrder(), FpgaConfig{}, &collector).value();
  EXPECT_EQ(run.embeddings, 2u);
  EXPECT_EQ(collector.count(), 2u);
  // Example 1's embedding M = {(u0,v1),(u1,v4),(u2,v3),(u3,v9)}.
  const Embedding m1{0, 3, 2, 8};
  const Embedding m2{1, 5, 4, 9};
  EXPECT_EQ(ToSet(collector.stored()), (std::set<Embedding>{m1, m2}));
}

TEST(KernelTest, MatchesBruteForceOnPaperExample) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  Cst cst = BuildCst(q, g, 0).value();
  auto run = RunKernel(cst, PaperOrder(), FpgaConfig{}, nullptr).value();
  EXPECT_EQ(run.embeddings, BruteForceCount(q, g));
}

TEST(KernelTest, CancelledTokenAbortsWithDeadlineExceeded) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  CancelToken cancel;
  cancel.Cancel();
  auto run = RunKernel(cst, PaperOrder(), FpgaConfig{}, nullptr,
                       /*round_trace=*/nullptr, &cancel);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(KernelTest, UntrippedTokenDoesNotPerturbResults) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  Cst cst = BuildCst(q, g, 0).value();
  CancelToken cancel;  // never tripped, no deadline
  auto run = RunKernel(cst, PaperOrder(), FpgaConfig{}, nullptr,
                       /*round_trace=*/nullptr, &cancel);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->embeddings, BruteForceCount(q, g));
}

TEST(KernelTest, RejectsMismatchedOrder) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  MatchingOrder bad;
  bad.root = 1;
  bad.order = {1, 0, 2, 3};
  EXPECT_FALSE(RunKernel(cst, bad, FpgaConfig{}, nullptr).ok());
  bad.order = {0, 1, 2};
  EXPECT_FALSE(RunKernel(cst, bad, FpgaConfig{}, nullptr).ok());
}

TEST(KernelTest, CountersAreConsistent) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  auto run = RunKernel(cst, PaperOrder(), FpgaConfig{}, nullptr).value();
  const KernelCounters& c = run.counters;
  EXPECT_EQ(c.visited_tasks, c.partial_results);  // one t_v per p_o
  EXPECT_GE(c.partial_results, run.embeddings);
  EXPECT_EQ(c.results, run.embeddings);
  EXPECT_GT(c.rounds, 0u);
  EXPECT_GT(c.edge_tasks, 0u);  // the paper query has non-tree edges
}

TEST(KernelTest, TinyBatchSizeStillExact) {
  // Exercises the resume-cursor path: N_o smaller than candidate lists.
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  Cst cst = BuildCst(q, g, 0).value();
  for (std::uint32_t no : {1u, 2u, 3u}) {
    FpgaConfig config;
    config.max_new_partials = no;
    auto run = RunKernel(cst, PaperOrder(), config, nullptr).value();
    EXPECT_EQ(run.embeddings, 2u) << "N_o=" << no;
  }
}

TEST(KernelTest, BufferBoundHolds) {
  // Sec. VI-B: deepest-first expansion bounds P at (|V(q)|-1) * N_o entries.
  Graph g = SmallLdbcGraph(0.2);
  for (int qi : {2, 5, 8}) {
    QueryGraph q = LdbcQuery(qi).value();
    auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
    Cst cst = BuildCst(q, g, order.root).value();
    for (std::uint32_t no : {4u, 64u}) {
      FpgaConfig config;
      config.max_new_partials = no;
      auto run = RunKernel(cst, order, config, nullptr).value();
      EXPECT_LE(run.counters.max_buffer_entries,
                static_cast<std::uint64_t>(q.NumVertices() - 1) * no)
          << q.name() << " N_o=" << no;
    }
  }
}

TEST(KernelTest, BatchSizeDoesNotChangeResults) {
  Graph g = SmallLdbcGraph(0.1);
  QueryGraph q = LdbcQuery(8).value();
  auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  Cst cst = BuildCst(q, g, order.root).value();
  std::uint64_t reference = 0;
  bool first = true;
  for (std::uint32_t no : {1u, 7u, 256u, 4096u}) {
    FpgaConfig config;
    config.max_new_partials = no;
    auto run = RunKernel(cst, order, config, nullptr).value();
    if (first) {
      reference = run.embeddings;
      first = false;
    } else {
      EXPECT_EQ(run.embeddings, reference) << "N_o=" << no;
    }
  }
}

// The kernel must agree with the CPU matcher and brute force on every LDBC
// query and every order policy.
class KernelEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, OrderPolicy>> {};

TEST_P(KernelEquivalenceTest, AgreesWithCpuAndBruteForce) {
  const auto [query_index, policy] = GetParam();
  Graph g = SmallLdbcGraph();
  QueryGraph q = LdbcQuery(query_index).value();
  auto order = ComputeMatchingOrder(q, g, policy, /*seed=*/5).value();
  Cst cst = BuildCst(q, g, order.root).value();

  ResultCollector kernel_collector(1000);
  auto run = RunKernel(cst, order, FpgaConfig{}, &kernel_collector).value();

  ResultCollector cpu_collector(1000);
  const std::uint64_t cpu = MatchCstOnCpu(cst, order, &cpu_collector).value();

  EXPECT_EQ(run.embeddings, cpu) << q.name();
  EXPECT_EQ(run.embeddings, BruteForceCount(q, g)) << q.name();
  // The kernel discovers results in batched-BFS order, the CPU matcher in
  // DFS order; the stored samples are only comparable when complete.
  if (run.embeddings <= 1000) {
    EXPECT_EQ(ToSet(kernel_collector.stored()), ToSet(cpu_collector.stored()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    QueriesTimesPolicies, KernelEquivalenceTest,
    ::testing::Combine(::testing::Range(0, kNumLdbcQueries),
                       ::testing::Values(OrderPolicy::kPathBased, OrderPolicy::kCeci,
                                         OrderPolicy::kRandom)));

TEST(KernelTest, PartitionedExecutionMatchesWhole) {
  Graph g = SmallLdbcGraph(0.1);
  QueryGraph q = LdbcQuery(5).value();
  auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  Cst cst = BuildCst(q, g, order.root).value();
  auto whole = RunKernel(cst, order, FpgaConfig{}, nullptr).value();

  PartitionConfig pconfig;
  pconfig.max_size_words = std::max<std::size_t>(cst.SizeWords() / 7, 32);
  auto parts = PartitionCstToVector(cst, order, pconfig, nullptr).value();
  std::uint64_t total = 0;
  for (const auto& p : parts) {
    total += RunKernel(p, order, FpgaConfig{}, nullptr).value().embeddings;
  }
  EXPECT_EQ(total, whole.embeddings);
}

TEST(SimulatedKernelSecondsTest, VariantOrderingHolds) {
  Graph g = SmallLdbcGraph(0.1);
  QueryGraph q = LdbcQuery(2).value();
  auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  Cst cst = BuildCst(q, g, order.root).value();
  FpgaConfig config;
  auto run = RunKernel(cst, order, config, nullptr).value();
  const double dram = SimulatedKernelSeconds(config, FastVariant::kDram, run,
                                             cst.SizeWords(), q.NumVertices());
  const double basic = SimulatedKernelSeconds(config, FastVariant::kBasic, run,
                                              cst.SizeWords(), q.NumVertices());
  const double task = SimulatedKernelSeconds(config, FastVariant::kTask, run,
                                             cst.SizeWords(), q.NumVertices());
  const double sep = SimulatedKernelSeconds(config, FastVariant::kSep, run,
                                            cst.SizeWords(), q.NumVertices());
  EXPECT_GT(dram, basic);
  EXPECT_GT(basic, task);
  EXPECT_GT(task, sep);
  EXPECT_GT(sep, 0.0);
}


// ---- Golden kernel counters. ----
//
// KernelCounters and the round trace are the only inputs the cycle model
// (Eqs. 1-4) and the pipeline simulation see, so every simulated figure
// rests on them. This table pins them bit-exactly for LDBC q0-q8 on the seed
// graph, at the default N_o and at N_o = 3 (which forces the resume-cursor
// path, take < remaining, on nearly every round), together with the per-round
// pipeline cycles SimulatePipeline derives from the trace (the device
// placement's timing). Any rewrite of RunKernel's inner loop or of the
// pipeline timing must reproduce every row; a mismatch prints the measured row
// in table syntax.

struct GoldenKernelRun {
  int query;
  std::uint32_t max_new_partials;
  KernelCounters counters;  // N, M, visited, rounds, results, max buffer
  std::uint64_t embeddings;
  std::uint64_t trace_digest;     // FNV-1a over the RoundWork trace
  std::uint64_t emission_digest;  // FNV-1a over embeddings in emission order
  double basic_seconds;
  double task_seconds;
  double sep_seconds;
  double basic_pipeline_cycles;  // SimulatePipeline(config, v, trace)->cycles
  double task_pipeline_cycles;
  double sep_pipeline_cycles;
};

constexpr std::uint32_t kDefaultNo = FpgaConfig{}.max_new_partials;

const GoldenKernelRun kGoldenKernelRuns[] = {
    {0, kDefaultNo, {4397, 4264, 4397, 3, 105, 133}, 105,
     0x12ae0c22abfd85f8ULL, 0xbc14918f7b7937c4ULL,
     8.8566498209635417e-05, 4.5458333333333331e-05, 3.0801666666666667e-05,
     21738, 8673, 4411},
    {0, 3, {4397, 4264, 4397, 1473, 105, 6}, 105,
     0xce54e701f7e80126ULL, 0x22abd144f29dc5f0ULL,
     0.00015674499999999999, 7.9758333333333339e-05, 6.5101666666666667e-05,
     31936, 14553, 11715},
    {1, kDefaultNo, {811, 0, 811, 3, 729, 67}, 729,
     0x099f5306110ae566ULL, 0x6d969defc60a200eULL,
     1.2741633300781249e-05, 1.0035e-05, 7.3316666666666671e-06,
     2448, 823, 823},
    {1, 3, {811, 0, 811, 279, 729, 7}, 729,
     0x494e022cb98bda26ULL, 0x86776edafb5ca722ULL,
     2.368388888888889e-05, 1.6475000000000001e-05, 1.3771666666666667e-05,
     3828, 1927, 1927},
    {2, kDefaultNo, {2488, 2252, 2488, 2, 480, 236}, 480,
     0x4dc812b42e26ec0cULL, 0x79074c83beb97745ULL,
     4.9848372395833335e-05, 2.6527916666666667e-05, 1.8234583333333333e-05,
     11980, 4748, 2497},
    {2, 3, {2488, 2252, 2488, 845, 480, 6}, 480,
     0xf2aba416c197b665ULL, 0xc33564b18078fbc5ULL,
     8.8331249999999996e-05, 4.6197916666666664e-05, 3.7904583333333333e-05,
     17717, 8120, 6630},
    {3, kDefaultNo, {17462, 14926, 17462, 6, 64, 2266}, 64,
     0xd7dee30fabfacd2eULL, 0xd8d83049084b9b6dULL,
     0.00033419118001302083, 0.0001763825, 0.00011817583333333333,
     82276, 32412, 17490},
    {3, 3, {17462, 14926, 17462, 6035, 64, 9}, 64,
     0xd949ac2e91af80c4ULL, 0x03f4a7bc7bc00561ULL,
     0.00060495250000000003, 0.00031705916666666665, 0.00025885250000000002,
     122771, 56528, 46781},
    {4, kDefaultNo, {12824, 6176, 12824, 6, 2577, 4130}, 2577,
     0xf98a5d0db040aae5ULL, 0x4c651deab2e90926ULL,
     0.00021912723307291666, 0.00013514500000000001, 9.2398333333333339e-05,
     50858, 19024, 12850},
    {4, 3, {12824, 6176, 12824, 4288, 2577, 9}, 2577,
     0x939eed12653dce84ULL, 0x1c77d585c5678996ULL,
     0.00040394722222222222, 0.00023505833333333333, 0.00019231166666666666,
     76390, 36152, 32039},
    {5, kDefaultNo, {171, 52, 171, 4, 14, 45}, 14,
     0x39ca343851076e57ULL, 0xf0508d74ab495b65ULL,
     3.4178637695312498e-06, 2.5004166666666665e-06, 1.9304166666666665e-06,
     639, 239, 188},
    {5, 3, {171, 52, 171, 63, 14, 6}, 14,
     0x68c76a5623618ce6ULL, 0x31034616a0cdfce5ULL,
     5.8593055555555561e-06, 3.877083333333333e-06, 3.3070833333333334e-06,
     976, 475, 445},
    {6, kDefaultNo, {2541, 2252, 2541, 4, 480, 236}, 480,
     0x56cfeec07bb60559ULL, 0x9bc798065dd93325ULL,
     5.1080671386718748e-05, 2.7583333333333334e-05, 1.9113333333333332e-05,
     12149, 4809, 2558},
    {6, 3, {2541, 2252, 2541, 861, 480, 9}, 480,
     0x7e0a986d3a5191c5ULL, 0xbb3f733085a5b705ULL,
     9.0184444444444439e-05, 4.7580000000000002e-05, 3.9110000000000003e-05,
     17950, 8237, 6744},
    {7, kDefaultNo, {632, 461, 632, 5, 114, 52}, 114,
     0x9e00ba409468b9a1ULL, 0xa9ceebebb3510d25ULL,
     1.28266552734375e-05, 7.6433333333333336e-06, 5.5366666666666665e-06,
     2845, 1113, 653},
    {7, 3, {632, 461, 632, 225, 114, 8}, 114,
     0x3016bc8285b54ce7ULL, 0xc19d58be550e7065ULL,
     2.2492222222222222e-05, 1.2776666666666667e-05, 1.0669999999999999e-05,
     4267, 1993, 1694},
    {8, kDefaultNo, {8738, 8502, 8738, 4, 1432, 480}, 1432,
     0xbc65197970560a2eULL, 0x6c8846a1eef229a5ULL,
     0.00017720605957031251, 9.1349999999999998e-05, 6.2223333333333338e-05,
     43244, 17256, 8757},
    {8, 3, {8738, 8502, 8738, 3055, 1432, 9}, 1432,
     0x771ea0f5073dc6a5ULL, 0xb9ed4772d0ed51a5ULL,
     0.00031578444444444441, 0.00016254, 0.00013341333333333333,
     64437, 29460, 23930},
};

std::uint64_t Fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

GoldenKernelRun MeasureKernelRun(const Graph& g, int query_index,
                                 std::uint32_t max_new_partials) {
  const QueryGraph q = LdbcQuery(query_index).value();
  const auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  const Cst cst = BuildCst(q, g, order.root).value();
  FpgaConfig config;
  config.max_new_partials = max_new_partials;

  GoldenKernelRun got{};
  got.query = query_index;
  got.max_new_partials = max_new_partials;
  got.emission_digest = kFnvOffset;
  ResultCollector collector;
  collector.SetCallback([&](std::span<const VertexId> m) {
    for (VertexId v : m) got.emission_digest = Fnv1a(got.emission_digest, v);
  });
  std::vector<RoundWork> trace;
  const auto run = RunKernel(cst, order, config, &collector, &trace).value();
  got.counters = run.counters;
  got.embeddings = run.embeddings;
  got.trace_digest = kFnvOffset;
  for (const RoundWork& r : trace) {
    got.trace_digest = Fnv1a(got.trace_digest, r.new_partials);
    got.trace_digest = Fnv1a(got.trace_digest, r.backward_groups);
  }
  const auto seconds = [&](FastVariant v) {
    return SimulatedKernelSeconds(config, v, run, cst.SizeWords(), q.NumVertices());
  };
  got.basic_seconds = seconds(FastVariant::kBasic);
  got.task_seconds = seconds(FastVariant::kTask);
  got.sep_seconds = seconds(FastVariant::kSep);
  const auto pipeline_cycles = [&](FastVariant v) {
    return SimulatePipeline(config, v, trace).value().cycles;
  };
  got.basic_pipeline_cycles = pipeline_cycles(FastVariant::kBasic);
  got.task_pipeline_cycles = pipeline_cycles(FastVariant::kTask);
  got.sep_pipeline_cycles = pipeline_cycles(FastVariant::kSep);
  return got;
}

std::string FormatGoldenRow(const GoldenKernelRun& r) {
  const KernelCounters& c = r.counters;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{%d, %u, {%llu, %llu, %llu, %llu, %llu, %llu}, %llu, "
                "0x%016llxULL, 0x%016llxULL, %.17g, %.17g, %.17g, "
                "%.17g, %.17g, %.17g}",
                r.query, r.max_new_partials,
                static_cast<unsigned long long>(c.partial_results),
                static_cast<unsigned long long>(c.edge_tasks),
                static_cast<unsigned long long>(c.visited_tasks),
                static_cast<unsigned long long>(c.rounds),
                static_cast<unsigned long long>(c.results),
                static_cast<unsigned long long>(c.max_buffer_entries),
                static_cast<unsigned long long>(r.embeddings),
                static_cast<unsigned long long>(r.trace_digest),
                static_cast<unsigned long long>(r.emission_digest),
                r.basic_seconds, r.task_seconds, r.sep_seconds,
                r.basic_pipeline_cycles, r.task_pipeline_cycles,
                r.sep_pipeline_cycles);
  return buf;
}

TEST(KernelGoldenTest, CountersTraceAndSimulatedTimesArePinned) {
  const Graph g = SmallLdbcGraph();
  ASSERT_EQ(std::size(kGoldenKernelRuns), 2u * kNumLdbcQueries);
  for (const GoldenKernelRun& want : kGoldenKernelRuns) {
    const GoldenKernelRun got =
        MeasureKernelRun(g, want.query, want.max_new_partials);
    SCOPED_TRACE("measured " + FormatGoldenRow(got));
    const KernelCounters& wc = want.counters;
    const KernelCounters& gc = got.counters;
    EXPECT_EQ(gc.partial_results, wc.partial_results);
    EXPECT_EQ(gc.edge_tasks, wc.edge_tasks);
    EXPECT_EQ(gc.visited_tasks, wc.visited_tasks);
    EXPECT_EQ(gc.rounds, wc.rounds);
    EXPECT_EQ(gc.results, wc.results);
    EXPECT_EQ(gc.max_buffer_entries, wc.max_buffer_entries);
    EXPECT_EQ(got.embeddings, want.embeddings);
    EXPECT_EQ(got.trace_digest, want.trace_digest);
    EXPECT_EQ(got.emission_digest, want.emission_digest);
    EXPECT_DOUBLE_EQ(got.basic_seconds, want.basic_seconds);
    EXPECT_DOUBLE_EQ(got.task_seconds, want.task_seconds);
    EXPECT_DOUBLE_EQ(got.sep_seconds, want.sep_seconds);
    // Integral cycle counts: exact equality, not a ULP tolerance.
    EXPECT_EQ(got.basic_pipeline_cycles, want.basic_pipeline_cycles);
    EXPECT_EQ(got.task_pipeline_cycles, want.task_pipeline_cycles);
    EXPECT_EQ(got.sep_pipeline_cycles, want.sep_pipeline_cycles);
  }
}

}  // namespace
}  // namespace fast
