#include "fpga/pipeline_sim.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "core/kernel.h"
#include "cst/cst.h"
#include "pipeline_sim_oracle.h"
#include "query/matching_order.h"
#include "test_util.h"

namespace fast {
namespace {

using testing::PaperDataGraph;
using testing::PaperQuery;
using testing::SmallLdbcGraph;
using testing::oracle::SteppedSimulatePipeline;

std::vector<RoundWork> UniformRounds(std::size_t n_rounds, std::uint32_t p,
                                     std::uint16_t groups) {
  return std::vector<RoundWork>(n_rounds, RoundWork{p, groups});
}

TEST(PipelineSimTest, RejectsInvalidConfig) {
  FpgaConfig c;
  c.clock_mhz = 0;
  EXPECT_FALSE(SimulatePipeline(c, FastVariant::kBasic, {}).ok());
}

TEST(PipelineSimTest, EmptyTraceCostsNothing) {
  FpgaConfig c;
  auto r = SimulatePipeline(c, FastVariant::kSep, {}).value();
  EXPECT_EQ(r.cycles, 0.0);
  EXPECT_EQ(r.stall_cycles, 0.0);
}

TEST(PipelineSimTest, TrippedTokenAbortsSimulationMidRun) {
  // Device-mode serving simulates the pipeline inside shared device rounds;
  // a deadline that expires there must abort with DEADLINE_EXCEEDED exactly
  // like the matching loops (the per-round probe, satellite of the shared
  // device executor).
  FpgaConfig c;
  const auto rounds = UniformRounds(8, 256, 2);
  CancelToken cancelled;
  cancelled.Cancel();
  auto r = SimulatePipeline(c, FastVariant::kSep, rounds, &cancelled);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);

  // An armed-but-unexpired token changes nothing.
  CancelToken idle;
  idle.ArmDeadline(3600.0);
  auto ok = SimulatePipeline(c, FastVariant::kSep, rounds, &idle);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->cycles, SimulatePipeline(c, FastVariant::kSep, rounds)->cycles);
}

TEST(PipelineSimTest, ZeroPartialRoundsAreSkipped) {
  FpgaConfig c;
  const auto rounds = UniformRounds(5, 0, 3);
  auto r = SimulatePipeline(c, FastVariant::kTask, rounds).value();
  EXPECT_EQ(r.cycles, 0.0);
}

TEST(PipelineSimTest, VariantOrderingHolds) {
  FpgaConfig c;
  const auto rounds = UniformRounds(64, 1024, 2);
  const double dram = SimulatePipeline(c, FastVariant::kDram, rounds)->cycles;
  const double basic = SimulatePipeline(c, FastVariant::kBasic, rounds)->cycles;
  const double task = SimulatePipeline(c, FastVariant::kTask, rounds)->cycles;
  const double sep = SimulatePipeline(c, FastVariant::kSep, rounds)->cycles;
  EXPECT_GT(dram, basic);
  EXPECT_GT(basic, task);
  EXPECT_GT(task, sep);
  EXPECT_GT(sep, 0.0);
}

TEST(PipelineSimTest, SerialSimTracksAnalyticModel) {
  // On large uniform rounds the per-cycle simulation must land near the
  // closed forms (within pipeline-fill slack).
  FpgaConfig c;
  c.max_new_partials = 1024;
  const std::size_t n_rounds = 128;
  const std::uint32_t p = 1024;
  const std::uint16_t g = 2;
  const auto rounds = UniformRounds(n_rounds, p, g);

  KernelCounters counters;
  counters.partial_results = n_rounds * p;
  counters.edge_tasks = counters.partial_results * g;
  counters.visited_tasks = counters.partial_results;
  counters.rounds = n_rounds;

  for (FastVariant v : {FastVariant::kBasic, FastVariant::kDram}) {
    const double analytic = KernelCycles(c, v, counters);
    const double simulated = SimulatePipeline(c, v, rounds)->cycles;
    EXPECT_GT(simulated, 0.6 * analytic) << FastVariantName(v);
    EXPECT_LT(simulated, 1.6 * analytic) << FastVariantName(v);
  }
}

TEST(PipelineSimTest, OverlappedSimTracksAnalyticModel) {
  FpgaConfig c;
  const std::size_t n_rounds = 32;
  const std::uint32_t p = 1024;
  const std::uint16_t g = 2;
  const auto rounds = UniformRounds(n_rounds, p, g);

  KernelCounters counters;
  counters.partial_results = n_rounds * p;
  counters.edge_tasks = counters.partial_results * g;
  counters.visited_tasks = counters.partial_results;
  counters.rounds = n_rounds;

  for (FastVariant v : {FastVariant::kTask, FastVariant::kSep}) {
    const double analytic = KernelCycles(c, v, counters);
    const double simulated = SimulatePipeline(c, v, rounds)->cycles;
    EXPECT_GT(simulated, 0.5 * analytic) << FastVariantName(v);
    EXPECT_LT(simulated, 2.0 * analytic) << FastVariantName(v);
  }
}

TEST(PipelineSimTest, SepNeverSlowerThanTask) {
  FpgaConfig c;
  for (std::uint16_t groups : {std::uint16_t{0}, std::uint16_t{1},
                               std::uint16_t{3}}) {
    const auto rounds = UniformRounds(16, 512, groups);
    const double task = SimulatePipeline(c, FastVariant::kTask, rounds)->cycles;
    const double sep = SimulatePipeline(c, FastVariant::kSep, rounds)->cycles;
    EXPECT_LE(sep, task + 1e-9) << "groups=" << groups;
  }
}

TEST(PipelineSimTest, ShallowFifosDoNotDeadlockOrBlowUp) {
  // Every module in the FAST pipeline runs at II=1, so the streams are
  // rate-balanced and even depth-2 FIFOs neither deadlock nor degrade
  // throughput materially -- which is why the paper can use plain
  // hls::stream buffering without a sizing analysis.
  FpgaConfig deep;
  deep.fifo_depth = 1024;
  FpgaConfig shallow = deep;
  shallow.fifo_depth = 2;
  const auto rounds = UniformRounds(16, 1024, 3);
  for (FastVariant v : {FastVariant::kTask, FastVariant::kSep}) {
    const auto d = SimulatePipeline(deep, v, rounds).value();
    const auto s = SimulatePipeline(shallow, v, rounds).value();
    EXPECT_GE(s.cycles, d.cycles - 1e-9) << FastVariantName(v);
    EXPECT_LE(s.cycles, 1.25 * d.cycles) << FastVariantName(v);
  }
}

TEST(PipelineSimTest, DeeperFifosNeverHurt) {
  FpgaConfig c;
  const auto rounds = UniformRounds(8, 512, 2);
  double prev = 1e300;
  for (std::uint32_t depth : {4u, 16u, 64u, 256u, 1024u}) {
    c.fifo_depth = depth;
    const double cycles = SimulatePipeline(c, FastVariant::kSep, rounds)->cycles;
    EXPECT_LE(cycles, prev + 1e-9) << depth;
    prev = cycles;
  }
}

TEST(PipelineSimTest, FifoHighWaterBounded) {
  FpgaConfig c;
  c.fifo_depth = 64;
  const auto rounds = UniformRounds(8, 1024, 2);
  const auto r = SimulatePipeline(c, FastVariant::kSep, rounds).value();
  EXPECT_LE(r.tv_fifo_high_water, 64u);
  EXPECT_LE(r.tn_fifo_high_water, 64u);
  EXPECT_GT(r.tv_fifo_high_water, 0u);
}

TEST(PipelineSimTest, NoEdgeTasksRetiresOnVisitedBitsAlone) {
  FpgaConfig c;
  const auto rounds = UniformRounds(4, 256, 0);
  const auto r = SimulatePipeline(c, FastVariant::kTask, rounds).value();
  // Roughly one cycle per p_o plus fills; far below the with-groups cost.
  EXPECT_LT(r.cycles, 4.0 * (256 + 32));
}

// End-to-end: trace a real kernel run and simulate it.
TEST(PipelineSimTest, KernelTraceFeedsSimulation) {
  Graph g = SmallLdbcGraph(0.2);
  QueryGraph q = LdbcQuery(2).value();
  auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  Cst cst = BuildCst(q, g, order.root).value();
  FpgaConfig config;

  std::vector<RoundWork> trace;
  auto run = RunKernel(cst, order, config, nullptr, &trace).value();
  ASSERT_FALSE(trace.empty());

  // The trace accounts for every expanded partial result.
  std::uint64_t traced_partials = 0;
  std::uint64_t traced_tn = 0;
  for (const auto& r : trace) {
    EXPECT_LE(r.new_partials, config.max_new_partials);
    traced_partials += r.new_partials;
    traced_tn += std::uint64_t{r.new_partials} * r.backward_groups;
  }
  EXPECT_EQ(traced_partials, run.counters.partial_results);
  EXPECT_EQ(traced_tn, run.counters.edge_tasks);

  // Simulated cycles track the analytic model within a factor of two on
  // real (non-uniform) traces.
  for (FastVariant v : {FastVariant::kBasic, FastVariant::kTask, FastVariant::kSep}) {
    const double analytic = KernelCycles(config, v, run.counters);
    const double simulated = SimulatePipeline(config, v, trace)->cycles;
    EXPECT_GT(simulated, 0.3 * analytic) << FastVariantName(v);
    EXPECT_LT(simulated, 3.0 * analytic) << FastVariantName(v);
  }
}

TEST(PipelineSimTest, PaperExampleTrace) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  MatchingOrder order;
  order.root = 0;
  order.order = {0, 1, 2, 3};
  std::vector<RoundWork> trace;
  auto run = RunKernel(cst, order, FpgaConfig{}, nullptr, &trace).value();
  EXPECT_EQ(run.embeddings, 2u);
  ASSERT_FALSE(trace.empty());
  auto sim = SimulatePipeline(FpgaConfig{}, FastVariant::kSep, trace).value();
  EXPECT_GT(sim.cycles, 0.0);
}

// ---- Closed form vs the cycle-stepped oracle (pipeline_sim_oracle.h). ----

constexpr FastVariant kAllVariants[] = {FastVariant::kDram, FastVariant::kBasic,
                                        FastVariant::kTask, FastVariant::kSep};

::testing::AssertionResult MatchesOracle(const FpgaConfig& c, FastVariant v,
                                         std::span<const RoundWork> rounds) {
  const PipelineSimResult got = SimulatePipeline(c, v, rounds).value();
  const PipelineSimResult want = SteppedSimulatePipeline(c, v, rounds);
  if (got.cycles == want.cycles && got.stall_cycles == want.stall_cycles &&
      got.tv_fifo_high_water == want.tv_fifo_high_water &&
      got.tn_fifo_high_water == want.tn_fifo_high_water) {
    return ::testing::AssertionSuccess();
  }
  std::string rs;
  for (const RoundWork& r : rounds) {
    rs += " (" + std::to_string(r.new_partials) + "," +
          std::to_string(r.backward_groups) + ")";
  }
  return ::testing::AssertionFailure()
         << FastVariantName(v) << " L1..L6=" << c.l1_read_buffer << ","
         << c.l2_generate << "," << c.l3_visited_validate << "," << c.l4_collect
         << "," << c.l5_generate_edge_task << "," << c.l6_edge_validate
         << " dram=" << c.dram_read_latency << " depth=" << c.fifo_depth
         << " rounds" << rs << ": cycles " << got.cycles << " vs " << want.cycles
         << ", stalls " << got.stall_cycles << " vs " << want.stall_cycles
         << ", tv_hw " << got.tv_fifo_high_water << " vs "
         << want.tv_fifo_high_water << ", tn_hw " << got.tn_fifo_high_water
         << " vs " << want.tn_fifo_high_water;
}

// A valid config with L1..L6 in [0, 9] and a FIFO depth from 1 to 1024.
FpgaConfig RandomConfig(std::mt19937_64& rng) {
  constexpr std::uint32_t kDepths[] = {1, 2, 3, 4, 8, 64, 1024};
  std::uniform_int_distribution<std::uint32_t> lat(0, 9);
  std::uniform_int_distribution<std::size_t> depth(0, std::size(kDepths) - 1);
  FpgaConfig c;
  do {
    c.l1_read_buffer = lat(rng);
    c.l2_generate = lat(rng);
    c.l3_visited_validate = lat(rng);
    c.l4_collect = lat(rng);
    c.l5_generate_edge_task = lat(rng);
    c.l6_edge_validate = lat(rng);
  } while (c.Lf() == 0 || c.Lt() == 0);
  c.dram_read_latency = 1 + lat(rng);
  c.fifo_depth = kDepths[depth(rng)];
  return c;
}

// p in [0, 4096], G in [0, 12]. Drawing p's bit width first keeps small,
// fill-dominated rounds as frequent as large ones.
RoundWork RandomRound(std::mt19937_64& rng) {
  const int bits = std::uniform_int_distribution<int>(0, 12)(rng);
  const std::uint32_t p = std::uniform_int_distribution<std::uint32_t>(
      0, std::uint32_t{1} << bits)(rng);
  const auto groups =
      static_cast<std::uint16_t>(std::uniform_int_distribution<int>(0, 12)(rng));
  return RoundWork{p, groups};
}

TEST(PipelineSimTest, ClosedFormMatchesSteppedOracleOnRandomRounds) {
  std::mt19937_64 rng(20210419);
  constexpr int kConfigs = 100000;
  for (int i = 0; i < kConfigs; ++i) {
    const FpgaConfig c = RandomConfig(rng);
    const RoundWork round = RandomRound(rng);
    for (FastVariant v : kAllVariants) {
      ASSERT_TRUE(MatchesOracle(c, v, {&round, 1})) << "config #" << i;
    }
  }
}

TEST(PipelineSimTest, ClosedFormMatchesSteppedOracleOnMultiRoundTraces) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const FpgaConfig c = RandomConfig(rng);
    std::vector<RoundWork> rounds(
        std::uniform_int_distribution<std::size_t>(1, 8)(rng));
    for (RoundWork& r : rounds) r = RandomRound(rng);
    for (FastVariant v : kAllVariants) {
      ASSERT_TRUE(MatchesOracle(c, v, rounds)) << "trace #" << i;
    }
  }
}

TEST(PipelineSimTest, SingleSlotFifosNeverStall) {
  // Every stage moves at most one token per cycle, so even depth-1 FIFOs
  // never fill up behind a slower consumer.
  FpgaConfig c;
  c.fifo_depth = 1;
  const auto rounds = UniformRounds(16, 1024, 3);
  for (FastVariant v : {FastVariant::kTask, FastVariant::kSep}) {
    const auto r = SimulatePipeline(c, v, rounds).value();
    EXPECT_EQ(r.stall_cycles, 0.0) << FastVariantName(v);
    EXPECT_EQ(r.tv_fifo_high_water, 1u) << FastVariantName(v);
    EXPECT_EQ(r.tn_fifo_high_water, 1u) << FastVariantName(v);
    EXPECT_TRUE(MatchesOracle(c, v, rounds));
  }
}

}  // namespace
}  // namespace fast
