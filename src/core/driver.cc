#include "core/driver.h"

#include <algorithm>
#include <memory>
#include <optional>

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

// A card private to the run: each partition crosses PCIe and runs through
// the kernel on the calling thread, its time from the analytic cycle model
// over options.fpga and options.variant. Records one wall `match` span.
class InlinePlacement : public CardPlacement {
 public:
  explicit InlinePlacement(const FastRunOptions& options)
      : CardPlacement(options.fpga, options.variant, obs::Span::kMatch,
                      obs::Span::kMatch) {}

  void Begin(const MatchingOrder& order, ResultCollector* collector,
             const CancelToken* cancel, FastRunResult* result) override {
    order_ = &order;
    collector_ = collector;
    cancel_ = cancel;
    result_ = result;
  }
  Status Place(const CompiledPartition& part) override {
    return MatchOnCard(part).status();
  }
  Status Drain() override { return Status::OK(); }

 protected:
  // Matches one partition and returns its simulated kernel + PCIe seconds.
  StatusOr<double> MatchOnCard(const CompiledPartition& part) {
    const Cst& cst = *part.cst;
    KernelRunResult run;
    {
      // Same stage name as the device executor's, so profiles attribute
      // inline kernel time below match (match;partition on a plan miss,
      // where Alg. 2's sink runs it).
      FAST_PROF_STAGE("kernel");
      FAST_ASSIGN_OR_RETURN(run, RunKernel(cst, *order_, fpga(), collector_,
                                           /*round_trace=*/nullptr, cancel_));
    }
    const double kernel_seconds = SimulatedKernelSeconds(
        fpga(), variant(), run, cst.SizeWords(), cst.NumQueryVertices());
    const double pcie_seconds =
        fpga().PcieSeconds(static_cast<double>(part.wire_bytes));
    result_->counters += run.counters;
    result_->embeddings += run.embeddings;
    result_->kernel_seconds += kernel_seconds;
    result_->dma_bytes += part.wire_bytes;
    result_->pcie_seconds += pcie_seconds;
    ++result_->fpga_partitions;
    return kernel_seconds + pcie_seconds;
  }

 private:
  const MatchingOrder* order_ = nullptr;
  ResultCollector* collector_ = nullptr;
  const CancelToken* cancel_ = nullptr;
  FastRunResult* result_ = nullptr;
};

// N offline cards; the card side of the composition is the busiest card.
class MultiCardPlacement : public InlinePlacement {
 public:
  MultiCardPlacement(const FastRunOptions& options, std::size_t num_cards)
      : InlinePlacement(options),
        card_seconds_(num_cards, 0.0),
        card_workload_(num_cards, 0.0) {}

  Status Place(const CompiledPartition& part) override {
    FAST_ASSIGN_OR_RETURN(const double seconds, MatchOnCard(part));
    const std::size_t card =
        std::min_element(card_workload_.begin(), card_workload_.end()) -
        card_workload_.begin();
    card_workload_[card] += EstimateWorkload(*part.cst);
    card_seconds_[card] += seconds;
    return Status::OK();
  }
  double CardSeconds(const FastRunResult&) const override {
    return *std::max_element(card_seconds_.begin(), card_seconds_.end());
  }

  const std::vector<double>& card_seconds() const { return card_seconds_; }

 private:
  std::vector<double> card_seconds_;
  std::vector<double> card_workload_;
};

Status ValidateRunOptions(const FastRunOptions& options,
                          const CardPlacement& placement) {
  FAST_RETURN_IF_ERROR(placement.fpga().Validate());
  if (options.cpu_share_delta < 0.0 || options.cpu_share_delta >= 1.0) {
    return Status::InvalidArgument("cpu_share_delta must be in [0, 1)");
  }
  return Status::OK();
}

// Steps (3)-(6) over one placement. `feed` places the card partitions:
// Alg. 2's as it emits them (a miss) or a compiled plan's (a hit). Both
// reach the card through the same Place, so a replayed plan reproduces the
// recording run's counters and simulated seconds bit for bit. `plan` carries
// the partition stats and the Alg. 3 host share once `feed` has returned.
template <typename Feed>
StatusOr<FastRunResult> PlaceAndCompose(const FastRunOptions& options,
                                        CardPlacement& placement,
                                        const MatchingOrder& order,
                                        double build_seconds,
                                        const CompiledPlan& plan, Feed&& feed) {
  FastRunResult result;
  result.order = order;
  result.build_seconds = build_seconds;
  ResultCollector collector(options.store_limit);
  if (options.embedding_callback) collector.SetCallback(options.embedding_callback);

  obs::RequestTrace* trace = options.trace;
  obs::ScopedSpan span(trace, placement.wait_span());
  std::optional<obs::StageScope> stage;
  stage.emplace(obs::SpanName(placement.wait_span()));
  placement.Begin(order, &collector, options.cancel, &result);
  const Status fed = feed(&result);
  const Status drained = placement.Drain();
  if (trace != nullptr) {
    trace->RecordSimulated(obs::Span::kDma, result.pcie_seconds);
    trace->RecordSimulated(obs::Span::kKernel, result.kernel_seconds);
  }
  FAST_RETURN_IF_ERROR(fed);
  FAST_RETURN_IF_ERROR(drained);
  if (placement.tail_span() != placement.wait_span()) {
    stage.reset();
    if (trace != nullptr) trace->Begin(placement.tail_span());
  }

  // (5) The CPU share runs after partitioning completes (Sec. V-C) and after
  // the card has drained, so no thread matching card items touches the
  // collector meanwhile.
  result.partition_stats = plan.partition_stats;
  Timer share_timer;
  if (!plan.cpu.empty()) {
    FAST_PROF_STAGE("cpu_share");
    for (const auto& part : plan.cpu) {
      FAST_ASSIGN_OR_RETURN(std::uint64_t found,
                            MatchCstOnCpu(*part, order, &collector, options.cancel));
      result.embeddings += found;
    }
  }
  result.cpu_partitions = plan.cpu.size();
  result.cpu_share_seconds = plan.cpu.empty() ? 0.0 : share_timer.ElapsedSeconds();
  const double w_total = plan.w_cpu + plan.w_fpga;
  result.cpu_share_fraction = w_total > 0.0 ? plan.w_cpu / w_total : 0.0;

  // (6) Composition: the card overlaps host partitioning; the CPU share
  // extends the host path.
  result.total_seconds =
      result.build_seconds +
      std::max(result.partition_seconds + result.cpu_share_seconds,
               placement.CardSeconds(result));
  result.sample_embeddings = collector.stored();
  return result;
}

// (2) on a miss: Alg. 2 (with Alg. 3's admission test when δ > 0) places
// each partition as it is emitted and records it into `plan` when `record`.
Status PartitionAndPlace(const Cst& cst, const MatchingOrder& order,
                         const FastRunOptions& options, CardPlacement& placement,
                         bool record, CompiledPlan& plan,
                         double* partition_seconds) {
  // FAST-DRAM strawman: no partitioning, the whole CST stays in card DRAM,
  // so the plan is one partition. Unrecorded, the CST is placed through a
  // non-owning pointer: the placement drains before the caller returns.
  if (placement.variant() == FastVariant::kDram) {
    plan.partition_stats.num_partitions = 1;
    plan.partition_stats.total_size_words = cst.SizeWords();
    CompiledPartition whole =
        record ? CompilePartition(cst)
               : CompiledPartition{std::shared_ptr<const Cst>(
                                       std::shared_ptr<const Cst>(), &cst),
                                   CstWireBytes(cst)};
    FAST_RETURN_IF_ERROR(placement.Place(whole));
    if (record) plan.fpga.push_back(std::move(whole));
    return Status::OK();
  }

  const PartitionConfig pconfig = DerivePartitionConfig(
      placement.fpga(), cst.NumQueryVertices(), options.partition);
  const bool share = options.cpu_share_delta > 0.0;
  const auto fpga_sink = [&](Cst part) -> Status {
    // W_F only matters to Alg. 3's admission test.
    if (share) {
      FAST_PROF_STAGE("estimate");
      plan.w_fpga += EstimateWorkload(part);
    }
    CompiledPartition compiled = CompilePartition(std::move(part));
    FAST_RETURN_IF_ERROR(placement.Place(compiled));
    if (record) plan.fpga.push_back(std::move(compiled));
    return Status::OK();
  };
  // Alg. 3: the host keeps a CST while its share of the total estimated
  // workload stays below δ. Crucially this is consulted *during*
  // partitioning, so the host can absorb oversized CSTs instead of recursing
  // on them (Sec. VII-B's FAST-SHARE saving).
  const auto try_cpu = [&](Cst& part) -> bool {
    const double w = [&] {
      FAST_PROF_STAGE("estimate");
      return EstimateWorkload(part);
    }();
    if (plan.w_cpu + w >= options.cpu_share_delta * (plan.w_cpu + plan.w_fpga + w)) {
      return false;
    }
    plan.w_cpu += w;
    plan.cpu.push_back(std::make_shared<const Cst>(std::move(part)));
    return true;
  };
  FAST_PROF_STAGE("partition");
  Timer partition_timer;
  const Status status =
      share ? PartitionCstWithOffload(cst, order, pconfig, fpga_sink, try_cpu,
                                      &plan.partition_stats)
            : PartitionCst(cst, order, pconfig, fpga_sink, &plan.partition_stats);
  *partition_seconds = partition_timer.ElapsedSeconds();
  return status;
}

}  // namespace

StatusOr<FastRunResult> RunFast(const QueryGraph& q, const Graph& g,
                                const FastRunOptions& options,
                                CardPlacement* placement,
                                const CompiledPlan* cached, CompiledPlan* record) {
  InlinePlacement inline_card(options);
  CardPlacement& card = placement != nullptr ? *placement : inline_card;
  // Reject invalid configs before paying for order computation and CST
  // construction.
  FAST_RETURN_IF_ERROR(ValidateRunOptions(options, card));

  // --- Hit: (3)-(6) over the recorded partitions. ---
  if (cached != nullptr) {
    const auto replay = [&](FastRunResult*) -> Status {
      for (const CompiledPartition& part : cached->fpga) {
        FAST_RETURN_IF_ERROR(card.Place(part));
      }
      return Status::OK();
    };
    return PlaceAndCompose(options, card, cached->order, /*build_seconds=*/0.0,
                           *cached, replay);
  }

  // --- (1) Matching order and CST construction. ---
  Cst cst;
  MatchingOrder order;
  double build_seconds = 0.0;
  {
    obs::ScopedSpan span(options.trace, obs::Span::kCstBuild);
    FAST_PROF_STAGE("cst_build");
    if (options.explicit_order.has_value()) {
      FAST_RETURN_IF_ERROR(ValidateOrder(q, options.explicit_order->order));
      order = *options.explicit_order;
    } else {
      FAST_ASSIGN_OR_RETURN(order, ComputeMatchingOrder(q, g, options.order_policy));
    }
    // Probe between phases: a deadline that expired during order computation
    // skips the (often dominant) CST build entirely.
    if (options.cancel != nullptr && options.cancel->Cancelled()) {
      return Status::DeadlineExceeded("run cancelled before CST build");
    }
    Timer build_timer;
    FAST_ASSIGN_OR_RETURN(cst, BuildCst(q, g, order.root, options.cst_build));
    build_seconds = build_timer.ElapsedSeconds();
  }
  return RunFastWithCst(cst, order, options, build_seconds, record, &card);
}

StatusOr<FastRunResult> RunFastWithCst(const Cst& cst, const MatchingOrder& order,
                                       const FastRunOptions& options,
                                       double build_seconds,
                                       CompiledPlan* record,
                                       CardPlacement* placement) {
  InlinePlacement inline_card(options);
  CardPlacement& card = placement != nullptr ? *placement : inline_card;
  FAST_RETURN_IF_ERROR(ValidateRunOptions(options, card));
  // Without a recording the plan only carries the host share and the stats;
  // card partitions are dropped once placed.
  CompiledPlan local;
  CompiledPlan& plan = record != nullptr ? *record : local;
  plan = CompiledPlan{};
  plan.order = order;

  // --- (2)+(3)+(4) Partition, transfer, and match; (5)+(6) after. ---
  return PlaceAndCompose(
      options, card, order, build_seconds, plan, [&](FastRunResult* result) {
        return PartitionAndPlace(cst, order, options, card, record != nullptr,
                                 plan, &result->partition_seconds);
      });
}

StatusOr<MultiFpgaResult> RunMultiFpga(const QueryGraph& q, const Graph& g,
                                       std::size_t num_devices,
                                       const FastRunOptions& options) {
  if (num_devices == 0) {
    return Status::InvalidArgument("num_devices must be positive");
  }
  MultiCardPlacement cards(options, num_devices);
  FAST_ASSIGN_OR_RETURN(FastRunResult run, RunFast(q, g, options, &cards));
  MultiFpgaResult result;
  result.embeddings = run.embeddings;
  result.num_partitions = run.fpga_partitions;
  result.device_seconds = cards.card_seconds();
  result.makespan_seconds = run.total_seconds;
  result.build_seconds = run.build_seconds;
  result.partition_seconds = run.partition_seconds;
  return result;
}

}  // namespace fast
