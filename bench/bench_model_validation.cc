// Model-validation ablation: the paper's closed-form cycle model (Eqs. 1-4)
// over whole-run counters versus the per-round pipeline timing
// (fpga/pipeline_sim.h) on real kernel traces.
//
// The whole-run closed forms drop per-round pipeline fill and the unpipelined
// t_n-generation outer loop; the per-round timing keeps both (the pipeline
// itself never stalls, so FIFO depth does not enter). This bench quantifies
// how much that idealization costs per query and per variant (sim/analytic
// ratio ~1 validates using the analytic model everywhere else in the
// repository).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "core/kernel.h"
#include "fpga/pipeline_sim.h"

namespace fast::bench {
namespace {

struct TraceData {
  KernelCounters counters;
  std::vector<RoundWork> trace;
};

TraceData TraceQuery(int qi, const std::string& dataset) {
  const Graph& g = Dataset(dataset);
  const QueryGraph q = Query(qi);
  auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  auto cst = BuildCst(q, g, order.root).value();
  TraceData data;
  auto run = RunKernel(cst, order, BenchFpgaConfig(), nullptr, &data.trace);
  FAST_CHECK(run.ok()) << run.status();
  data.counters = run->counters;
  return data;
}

void BM_ModelVsSim(benchmark::State& state, int qi, FastVariant variant) {
  const TraceData data = TraceQuery(qi, "DG01");
  const FpgaConfig config = BenchFpgaConfig();
  double ratio = 0;
  for (auto _ : state) {
    const double analytic = KernelCycles(config, variant, data.counters);
    const double simulated =
        SimulatePipeline(config, variant, data.trace)->cycles;
    ratio = simulated / analytic;
    benchmark::DoNotOptimize(ratio);
  }
  state.counters["sim_over_analytic"] = ratio;
}

void PrintValidation(const std::string& dataset) {
  const FpgaConfig config = BenchFpgaConfig();
  std::printf("\nModel validation (%s): simulated / analytic cycles per variant\n",
              dataset.c_str());
  std::printf("%-6s %12s %12s %12s %12s %10s\n", "query", "DRAM", "BASIC", "TASK",
              "SEP", "rounds");
  for (int qi : {0, 1, 2, 5, 6, 8}) {
    const TraceData data = TraceQuery(qi, dataset);
    std::printf("q%-5d", qi);
    for (FastVariant v : {FastVariant::kDram, FastVariant::kBasic,
                          FastVariant::kTask, FastVariant::kSep}) {
      const double analytic = KernelCycles(config, v, data.counters);
      const double simulated = SimulatePipeline(config, v, data.trace)->cycles;
      std::printf(" %12.3f", analytic > 0 ? simulated / analytic : 0.0);
    }
    std::printf(" %10llu\n",
                static_cast<unsigned long long>(data.counters.rounds));
  }
}

}  // namespace
}  // namespace fast::bench

int main(int argc, char** argv) {
  for (int qi : {2, 8}) {
    for (fast::FastVariant v :
         {fast::FastVariant::kBasic, fast::FastVariant::kSep}) {
      benchmark::RegisterBenchmark(
          ("ModelValidation/q" + std::to_string(qi) + "/" +
           fast::FastVariantName(v))
              .c_str(),
          fast::bench::BM_ModelVsSim, qi, v)
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  fast::bench::PrintValidation("DG01");
  fast::bench::PrintValidation("DG03");
  return 0;
}
