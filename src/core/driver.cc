#include "core/driver.h"

#include <algorithm>

#include "core/cpu_matcher.h"
#include "cst/cst_serialize.h"
#include "cst/workload.h"
#include "obs/profiler.h"
#include "util/logging.h"
#include "util/timer.h"

namespace fast {

PartitionConfig DerivePartitionConfig(const FpgaConfig& fpga, std::size_t query_size,
                                      const PartitionConfig& requested) {
  PartitionConfig config = requested;
  if (config.max_size_words == 0) {
    const std::size_t buffer_words = PartialBufferWords(fpga, query_size);
    // Leave 10% headroom for control logic and FIFOs.
    const auto budget = static_cast<std::size_t>(
        0.9 * static_cast<double>(fpga.bram_words));
    config.max_size_words =
        budget > buffer_words ? budget - buffer_words : fpga.bram_words / 2;
  }
  if (config.max_degree == 0) config.max_degree = fpga.port_max;
  return config;
}

namespace {

Status ValidateRunOptions(const FastRunOptions& options) {
  FAST_RETURN_IF_ERROR(options.fpga.Validate());
  if (options.cpu_share_delta < 0.0 || options.cpu_share_delta >= 1.0) {
    return Status::InvalidArgument("cpu_share_delta must be in [0, 1)");
  }
  return Status::OK();
}

// Steps (3)-(6) on the calling thread, over partitions from either source:
// Alg. 2 as it emits them (the miss path) or a compiled plan (the hit path).
// Both feed the same per-partition code, so a replayed plan reproduces the
// recording run's counters and simulated seconds bit for bit.
class InlineRun {
 public:
  InlineRun(const FastRunOptions& options, const MatchingOrder& order,
            double build_seconds)
      : options_(options),
        collector_(options.store_limit),
        // One wall `match` span covers partitioning, simulated-device
        // matching and the CPU share: host time, as opposed to the
        // simulated dma/kernel durations recorded in Finish.
        match_span_(options.trace, obs::Span::kMatch) {
    result_.order = order;
    result_.build_seconds = build_seconds;
    if (options.embedding_callback) {
      collector_.SetCallback(options.embedding_callback);
    }
  }

  // (3)+(4): one partition crosses PCIe and runs through the kernel.
  Status MatchOnCard(const Cst& part, std::size_t wire_bytes) {
    KernelRunResult run;
    {
      // Same stage name as the device executor's, so profiles attribute
      // inline kernel time below serve;match (serve;match;partition on a
      // plan miss, where Alg. 2's sink runs it).
      FAST_PROF_STAGE("kernel");
      FAST_ASSIGN_OR_RETURN(run, RunKernel(part, result_.order, options_.fpga,
                                           &collector_, /*round_trace=*/nullptr,
                                           options_.cancel));
    }
    result_.counters += run.counters;
    result_.embeddings += run.embeddings;
    result_.kernel_seconds +=
        SimulatedKernelSeconds(options_.fpga, options_.variant, run,
                               part.SizeWords(), part.NumQueryVertices());
    result_.dma_bytes += wire_bytes;
    result_.pcie_seconds +=
        options_.fpga.PcieSeconds(static_cast<double>(wire_bytes));
    ++result_.fpga_partitions;
    return Status::OK();
  }

  void set_partition_seconds(double s) { result_.partition_seconds = s; }

  // (5) the CPU share, which runs after partitioning completes (Sec. V-C),
  // then (6) composition: the card overlaps host partitioning; the CPU share
  // extends the host path.
  StatusOr<FastRunResult> Finish(const CompiledPlan& plan) {
    result_.partition_stats = plan.partition_stats;
    Timer share_timer;
    for (const auto& part : plan.cpu) {
      FAST_ASSIGN_OR_RETURN(std::uint64_t found,
                            MatchCstOnCpu(*part, result_.order, &collector_,
                                          options_.cancel));
      result_.embeddings += found;
    }
    result_.cpu_partitions = plan.cpu.size();
    result_.cpu_share_seconds =
        plan.cpu.empty() ? 0.0 : share_timer.ElapsedSeconds();
    const double w_total = plan.w_cpu + plan.w_fpga;
    result_.cpu_share_fraction = w_total > 0.0 ? plan.w_cpu / w_total : 0.0;

    if (options_.trace != nullptr) {
      options_.trace->RecordSimulated(obs::Span::kDma, result_.pcie_seconds);
      options_.trace->RecordSimulated(obs::Span::kKernel, result_.kernel_seconds);
    }
    result_.total_seconds =
        result_.build_seconds +
        std::max(result_.partition_seconds + result_.cpu_share_seconds,
                 result_.pcie_seconds + result_.kernel_seconds);
    result_.sample_embeddings = collector_.stored();
    return std::move(result_);
  }

 private:
  const FastRunOptions& options_;
  ResultCollector collector_;
  obs::ScopedSpan match_span_;
  FastRunResult result_;
};

}  // namespace

StatusOr<FastRunResult> RunFast(const QueryGraph& q, const Graph& g,
                                const FastRunOptions& options) {
  // Reject invalid configs before paying for order computation and CST
  // construction (RunFastWithCst re-checks for its direct callers).
  FAST_RETURN_IF_ERROR(ValidateRunOptions(options));

  // --- Matching order. ---
  MatchingOrder order;
  if (options.explicit_order.has_value()) {
    FAST_RETURN_IF_ERROR(ValidateOrder(q, options.explicit_order->order));
    order = *options.explicit_order;
  } else {
    FAST_ASSIGN_OR_RETURN(order, ComputeMatchingOrder(q, g, options.order_policy));
  }

  // --- (1) CST construction. ---
  // Probe between phases: a deadline that expired during order computation
  // skips the (often dominant) CST build entirely.
  if (options.cancel != nullptr && options.cancel->Cancelled()) {
    return Status::DeadlineExceeded("run cancelled before CST build");
  }
  Timer build_timer;
  FAST_ASSIGN_OR_RETURN(Cst cst, BuildCst(q, g, order.root, options.cst_build));
  return RunFastWithCst(cst, order, options, build_timer.ElapsedSeconds());
}

StatusOr<FastRunResult> RunFastWithCst(const Cst& cst, const MatchingOrder& order,
                                       const FastRunOptions& options,
                                       double build_seconds,
                                       CompiledPlan* compiled) {
  FAST_RETURN_IF_ERROR(ValidateRunOptions(options));
  // Without a recording the plan only carries the host share and the stats;
  // card partitions are dropped once matched.
  CompiledPlan local;
  CompiledPlan& plan = compiled != nullptr ? *compiled : local;
  plan = CompiledPlan{};
  plan.order = order;
  InlineRun run(options, order, build_seconds);

  // --- FAST-DRAM strawman: no partitioning, the whole CST stays in card
  // DRAM, so the plan is one partition. ---
  if (options.variant == FastVariant::kDram) {
    FAST_RETURN_IF_ERROR(run.MatchOnCard(cst, CstWireBytes(cst)));
    plan.partition_stats.num_partitions = 1;
    plan.partition_stats.total_size_words = cst.SizeWords();
    if (compiled != nullptr) plan.fpga.push_back(CompilePartition(cst));
    return run.Finish(plan);
  }

  // --- (2)+(3)+(4) Partition, transfer, and match; (5) CPU share. ---
  const PartitionConfig pconfig = DerivePartitionConfig(
      options.fpga, cst.NumQueryVertices(), options.partition);
  const bool share = options.cpu_share_delta > 0.0;
  const auto fpga_sink = [&](Cst part) -> Status {
    // W_F only matters to Alg. 3's admission test.
    if (share) plan.w_fpga += EstimateWorkload(part);
    CompiledPartition compiled_part = CompilePartition(std::move(part));
    FAST_RETURN_IF_ERROR(
        run.MatchOnCard(*compiled_part.cst, compiled_part.wire_bytes));
    if (compiled != nullptr) plan.fpga.push_back(std::move(compiled_part));
    return Status::OK();
  };
  Timer partition_timer;
  Status sink_status;
  {
    FAST_PROF_STAGE("partition");
    if (share) {
      // Alg. 3: the host keeps a CST while its share of the total estimated
      // workload stays below δ. Crucially this is consulted *during*
      // partitioning, so the host can absorb oversized CSTs instead of
      // recursing on them (Sec. VII-B's FAST-SHARE saving).
      const auto try_cpu = [&](Cst& part) -> bool {
        const double w = EstimateWorkload(part);
        if (plan.w_cpu + w >=
            options.cpu_share_delta * (plan.w_cpu + plan.w_fpga + w)) {
          return false;
        }
        plan.w_cpu += w;
        plan.cpu.push_back(std::make_shared<const Cst>(std::move(part)));
        return true;
      };
      sink_status = PartitionCstWithOffload(cst, order, pconfig, fpga_sink,
                                            try_cpu, &plan.partition_stats);
    } else {
      sink_status = PartitionCst(cst, order, pconfig, fpga_sink,
                                 &plan.partition_stats);
    }
  }
  FAST_RETURN_IF_ERROR(sink_status);
  run.set_partition_seconds(partition_timer.ElapsedSeconds());
  return run.Finish(plan);
}

StatusOr<FastRunResult> RunCompiledPlan(const CompiledPlan& plan,
                                        const FastRunOptions& options) {
  FAST_RETURN_IF_ERROR(ValidateRunOptions(options));
  InlineRun run(options, plan.order, /*build_seconds=*/0.0);
  for (const CompiledPartition& part : plan.fpga) {
    FAST_RETURN_IF_ERROR(run.MatchOnCard(*part.cst, part.wire_bytes));
  }
  return run.Finish(plan);
}

StatusOr<MultiFpgaResult> RunMultiFpga(const QueryGraph& q, const Graph& g,
                                       std::size_t num_devices,
                                       const FastRunOptions& options) {
  if (num_devices == 0) {
    return Status::InvalidArgument("num_devices must be positive");
  }
  FAST_RETURN_IF_ERROR(options.fpga.Validate());

  MultiFpgaResult result;
  FAST_ASSIGN_OR_RETURN(MatchingOrder order,
                        ComputeMatchingOrder(q, g, options.order_policy));

  Timer build_timer;
  FAST_ASSIGN_OR_RETURN(Cst cst, BuildCst(q, g, order.root, options.cst_build));
  result.build_seconds = build_timer.ElapsedSeconds();

  const PartitionConfig pconfig =
      DerivePartitionConfig(options.fpga, q.NumVertices(), options.partition);

  result.device_seconds.assign(num_devices, 0.0);
  std::vector<double> device_workload(num_devices, 0.0);

  Timer partition_timer;
  Status s = PartitionCst(
      cst, order, pconfig,
      [&](Cst part) -> Status {
        // Least-estimated-workload device gets the partition (Sec. VII-E).
        const std::size_t device =
            std::min_element(device_workload.begin(), device_workload.end()) -
            device_workload.begin();
        device_workload[device] += EstimateWorkload(part);
        FAST_ASSIGN_OR_RETURN(KernelRunResult run,
                              RunKernel(part, order, options.fpga, nullptr,
                                        /*round_trace=*/nullptr, options.cancel));
        result.embeddings += run.embeddings;
        result.device_seconds[device] +=
            SimulatedKernelSeconds(options.fpga, options.variant, run,
                                   part.SizeWords(), q.NumVertices()) +
            options.fpga.PcieSeconds(static_cast<double>(CstWireBytes(part)));
        ++result.num_partitions;
        return Status::OK();
      },
      nullptr);
  FAST_RETURN_IF_ERROR(s);
  result.partition_seconds = partition_timer.ElapsedSeconds();

  const double busiest =
      result.device_seconds.empty()
          ? 0.0
          : *std::max_element(result.device_seconds.begin(), result.device_seconds.end());
  result.makespan_seconds =
      result.build_seconds + std::max(result.partition_seconds, busiest);
  return result;
}

}  // namespace fast
