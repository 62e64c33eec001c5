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

StatusOr<FastRunResult> RunFast(const QueryGraph& q, const Graph& g,
                                const FastRunOptions& options) {
  // Reject invalid configs before paying for order computation and CST
  // construction (RunFastWithCst re-checks for its direct callers).
  FAST_RETURN_IF_ERROR(options.fpga.Validate());
  if (options.cpu_share_delta < 0.0 || options.cpu_share_delta >= 1.0) {
    return Status::InvalidArgument("cpu_share_delta must be in [0, 1)");
  }

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
                                       double build_seconds) {
  FAST_RETURN_IF_ERROR(options.fpga.Validate());
  if (options.cpu_share_delta < 0.0 || options.cpu_share_delta >= 1.0) {
    return Status::InvalidArgument("cpu_share_delta must be in [0, 1)");
  }

  const QueryGraph& q = cst.layout().query();
  FastRunResult result;
  result.order = order;
  result.build_seconds = build_seconds;

  ResultCollector collector(options.store_limit);
  if (options.embedding_callback) collector.SetCallback(options.embedding_callback);

  // --- FAST-DRAM strawman: no partitioning, CST stays in card DRAM. ---
  if (options.variant == FastVariant::kDram) {
    obs::ScopedSpan match_span(options.trace, obs::Span::kMatch);
    FAST_ASSIGN_OR_RETURN(KernelRunResult run,
                          RunKernel(cst, result.order, options.fpga, &collector,
                                    /*round_trace=*/nullptr, options.cancel));
    result.counters = run.counters;
    result.embeddings = run.embeddings;
    result.kernel_seconds = SimulatedKernelSeconds(
        options.fpga, FastVariant::kDram, run, cst.SizeWords(), q.NumVertices());
    result.dma_bytes = CstWireBytes(cst);
    result.pcie_seconds =
        options.fpga.PcieSeconds(static_cast<double>(result.dma_bytes));
    if (options.trace != nullptr) {
      options.trace->RecordSimulated(obs::Span::kDma, result.pcie_seconds);
      options.trace->RecordSimulated(obs::Span::kKernel, result.kernel_seconds);
    }
    result.partition_stats.num_partitions = 1;
    result.partition_stats.total_size_words = cst.SizeWords();
    result.fpga_partitions = 1;
    result.total_seconds =
        result.build_seconds + result.pcie_seconds + result.kernel_seconds;
    result.sample_embeddings = collector.stored();
    return result;
  }

  // One wall `match` span covers partitioning, simulated-device matching,
  // and the CPU share — host time, as opposed to the simulated dma/kernel
  // durations recorded separately below.
  obs::ScopedSpan match_span(options.trace, obs::Span::kMatch);

  // --- (2)+(3)+(4) Partition, transfer, and match; (5) CPU share. ---
  const PartitionConfig pconfig =
      DerivePartitionConfig(options.fpga, q.NumVertices(), options.partition);

  double w_cpu = 0.0;    // W_C: estimated workload kept on the host
  double w_fpga = 0.0;   // W_F: estimated workload sent to the card
  std::vector<Cst> cpu_queue;

  Timer partition_timer;
  double kernel_seconds = 0.0;
  double pcie_seconds = 0.0;
  const auto fpga_sink = [&](Cst part) -> Status {
    w_fpga += EstimateWorkload(part);
    KernelRunResult run;
    {
      // Same stage name as the device executor's, so profiles attribute
      // inline kernel time below serve;match.
      FAST_PROF_STAGE("kernel");
      FAST_ASSIGN_OR_RETURN(run, RunKernel(part, result.order, options.fpga,
                                           &collector, /*round_trace=*/nullptr,
                                           options.cancel));
    }
    result.counters += run.counters;
    result.embeddings += run.embeddings;
    kernel_seconds += SimulatedKernelSeconds(options.fpga, options.variant, run,
                                             part.SizeWords(), q.NumVertices());
    const std::uint64_t part_bytes = CstWireBytes(part);
    result.dma_bytes += part_bytes;
    pcie_seconds += options.fpga.PcieSeconds(static_cast<double>(part_bytes));
    ++result.fpga_partitions;
    return Status::OK();
  };
  Status sink_status;
  if (options.cpu_share_delta > 0.0) {
    // Alg. 3: the host keeps a CST while its share of the total estimated
    // workload stays below δ. Crucially this is consulted *during*
    // partitioning, so the host can absorb oversized CSTs instead of
    // recursing on them (Sec. VII-B's FAST-SHARE saving).
    const auto try_cpu = [&](Cst& part) -> bool {
      const double w = EstimateWorkload(part);
      if (w_cpu + w >= options.cpu_share_delta * (w_cpu + w_fpga + w)) {
        return false;
      }
      w_cpu += w;
      cpu_queue.push_back(std::move(part));
      return true;
    };
    sink_status = PartitionCstWithOffload(cst, result.order, pconfig, fpga_sink,
                                          try_cpu, &result.partition_stats);
  } else {
    sink_status =
        PartitionCst(cst, result.order, pconfig, fpga_sink, &result.partition_stats);
  }
  FAST_RETURN_IF_ERROR(sink_status);
  result.partition_seconds = partition_timer.ElapsedSeconds();
  result.kernel_seconds = kernel_seconds;
  result.pcie_seconds = pcie_seconds;

  // --- (5) CPU share runs after partitioning completes (Sec. V-C). ---
  Timer share_timer;
  for (const Cst& part : cpu_queue) {
    FAST_ASSIGN_OR_RETURN(std::uint64_t found,
                          MatchCstOnCpu(part, result.order, &collector,
                                        options.cancel));
    result.embeddings += found;
  }
  result.cpu_partitions = cpu_queue.size();
  result.cpu_share_seconds = cpu_queue.empty() ? 0.0 : share_timer.ElapsedSeconds();

  const double w_total = w_cpu + w_fpga;
  result.cpu_share_fraction = w_total > 0.0 ? w_cpu / w_total : 0.0;

  if (options.trace != nullptr) {
    options.trace->RecordSimulated(obs::Span::kDma, result.pcie_seconds);
    options.trace->RecordSimulated(obs::Span::kKernel, result.kernel_seconds);
  }

  // --- (6) Composition: the card overlaps host partitioning; the CPU share
  // extends the host path. ---
  result.total_seconds =
      result.build_seconds +
      std::max(result.partition_seconds + result.cpu_share_seconds,
               result.pcie_seconds + result.kernel_seconds);
  result.sample_embeddings = collector.stored();
  return result;
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
