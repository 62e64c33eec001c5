#ifndef FAST_CORE_DRIVER_H_
#define FAST_CORE_DRIVER_H_

// Host-side driver: the one pipeline that runs the CPU-FPGA flow of Fig. 2.
//
//  (1) compute the matching order and build the CST on the CPU (Alg. 1)
//  (2) partition it to fit BRAM (Alg. 2); FAST-DRAM keeps one partition
//  (3) stream partitions over PCIe to card DRAM
//  (4) the kernel loads each partition into BRAM and matches it (Algs. 4-8)
//  (5) optionally keep a δ-share of the workload on the CPU (Alg. 3)
//  (6) collect results
//
// Steps (3)-(4) belong to a CardPlacement; the pipeline does the rest. On a
// plan miss it runs (1)-(2) and hands each partition to the placement the
// moment Alg. 2 emits it, so partitioning overlaps matching on the card; it
// can record the partitions into a CompiledPlan as they go. On a plan hit it
// hands the recorded partitions over in their recorded order. Either way the
// host share runs after the placement has drained, then the result composes.
// Placements:
//
//   inline (default)    a card private to the run, matched on the calling
//                       thread; analytic timing (SimulatedKernelSeconds)
//   N offline cards     each partition to the card with the least estimated
//                       workload (Sec. VII-E; RunMultiFpga)
//   device::DevicePlacement  the shared device executor: partitions of many
//                       requests batched into rounds timed per round
//
// Host-side times (CST construction, partitioning, CPU share) are measured
// wall-clock; kernel and PCIe times are simulated by the placement's device
// model. The paper overlaps partitioning with kernel execution, and the CPU
// share runs after partitioning finishes, so:
//
//   total = build + max(partition + cpu_share, card)
//
// where card is pcie + kernel for one card and the busiest card's
// kernel + PCIe seconds for N cards.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "core/compiled_plan.h"
#include "core/kernel.h"
#include "core/result_collector.h"
#include "cst/cst.h"
#include "cst/partition.h"
#include "fpga/config.h"
#include "fpga/cycle_model.h"
#include "ldbc/ldbc.h"
#include "obs/trace.h"
#include "query/matching_order.h"
#include "util/cancel.h"
#include "util/status.h"

namespace fast {

struct FastRunOptions {
  FastVariant variant = FastVariant::kSep;

  // FAST-SHARE: let the CPU take up to a δ fraction of the estimated
  // workload (Alg. 3). delta = 0 disables sharing.
  double cpu_share_delta = 0.0;

  FpgaConfig fpga = AlveoU200Config();

  // Partition thresholds; if max_size_words is 0 they are derived from the
  // device: δ_S = BRAM words minus the partial-result buffer, δ_D = Port_max.
  PartitionConfig partition{.max_size_words = 0, .max_degree = 0, .fixed_k = 0};

  OrderPolicy order_policy = OrderPolicy::kPathBased;
  // Overrides order_policy when set (Fig. 15 sweeps).
  std::optional<MatchingOrder> explicit_order;

  CstBuildOptions cst_build;

  // Store up to this many embeddings in the result (0 = count only).
  std::size_t store_limit = 0;

  // Streaming per-embedding callback, invoked as results are found (before
  // storage). Independent of store_limit. Calls are serialized per run; on
  // the shared device (device::DevicePlacement) they may come from the
  // device thread or from any worker waiting on it.
  std::function<void(std::span<const VertexId>)> embedding_callback;

  // Cooperative cancellation (util/cancel.h): probed between pipeline phases
  // and inside the matching loops (once per kernel round, every few hundred
  // CPU-side expansions). A tripped token makes the run return
  // DEADLINE_EXCEEDED instead of finishing. Non-owning; the caller keeps the
  // token alive for the duration of the run. nullptr = never cancelled.
  const CancelToken* cancel = nullptr;

  // Optional per-request span recorder (obs/trace.h). The pipeline records
  // `cst_build` on a miss, its placement's wall spans (`match` inline;
  // `device_wait` then `reassembly` on the shared device) and the simulated
  // `dma`/`kernel` durations from the device model. The service layers
  // record the surrounding spans (queue, snapshot, plan_lookup, remap).
  // Non-owning; single-threaded like the run itself. nullptr = no tracing.
  obs::RequestTrace* trace = nullptr;
};

struct FastRunResult {
  std::uint64_t embeddings = 0;
  MatchingOrder order;

  PartitionStats partition_stats;
  KernelCounters counters;

  // Measured host times (seconds).
  double build_seconds = 0;
  double partition_seconds = 0;
  double cpu_share_seconds = 0;

  // Simulated device times (seconds).
  double kernel_seconds = 0;
  double pcie_seconds = 0;
  // Simulated bytes this run pushed across PCIe. In shared-device mode this
  // is the dedup-aware attribution: a query whose CST image was deduplicated
  // against a round-mate's transfer is charged only its share of the round's
  // fixed transaction overhead. Feeds per-tenant accounting (obs/accounting.h).
  std::uint64_t dma_bytes = 0;

  // Composed end-to-end time (see header comment).
  double total_seconds = 0;

  // Achieved CPU share W_C / (W_C + W_F).
  double cpu_share_fraction = 0;
  std::size_t cpu_partitions = 0;
  std::size_t fpga_partitions = 0;

  // First `store_limit` embeddings, if requested.
  std::vector<Embedding> sample_embeddings;
};

// Where the pipeline sends card partitions: steps (3)-(4) on one device
// model. The pipeline cuts partitions to fpga()'s BRAM budget and skips
// partitioning when variant() is FAST-DRAM. A placement serves one run at a
// time: Begin, any number of Place calls, then Drain.
class CardPlacement {
 public:
  // `wait_span` is the wall span (and profiler stage of the same name) over
  // placing and draining; `tail_span` covers the host share and composition
  // after the drain (the same span when they are one phase).
  CardPlacement(const FpgaConfig& fpga, FastVariant variant,
                obs::Span wait_span, obs::Span tail_span)
      : fpga_(fpga), variant_(variant), wait_span_(wait_span),
        tail_span_(tail_span) {}

  const FpgaConfig& fpga() const { return fpga_; }
  FastVariant variant() const { return variant_; }
  obs::Span wait_span() const { return wait_span_; }
  obs::Span tail_span() const { return tail_span_; }

  // Opens a run. Matched partitions report embeddings to `collector` and
  // fold counters, embeddings, fpga_partitions, dma_bytes and the simulated
  // kernel/PCIe seconds into `*result`, all by the time Drain returns.
  virtual void Begin(const MatchingOrder& order, ResultCollector* collector,
                     const CancelToken* cancel, FastRunResult* result) = 0;
  // (3)+(4) for one partition. The partition stays readable until Drain
  // returns.
  virtual Status Place(const CompiledPartition& part) = 0;
  // Waits until every placed partition is matched. The pipeline calls it
  // even after a failed Place, so queued work is reaped before the
  // collector goes away.
  virtual Status Drain() = 0;
  // The simulated card time the host path overlaps.
  virtual double CardSeconds(const FastRunResult& r) const {
    return r.pcie_seconds + r.kernel_seconds;
  }

 protected:
  // Placements live on their caller's stack; none is deleted through a
  // CardPlacement pointer.
  ~CardPlacement() = default;

 private:
  const FpgaConfig& fpga_;
  const FastVariant variant_;
  const obs::Span wait_span_;
  const obs::Span tail_span_;
};

// Runs the pipeline for query q over data graph g.
//
// With `cached` null this is a miss: steps (1)-(6), with one `cst_build`
// span and profiler stage over order computation and CST construction. A
// non-null `record` then records the run's plan (core/compiled_plan.h): the
// order, every partition as Alg. 2 emits it (each is placed as soon as it
// is emitted, exactly as without recording), the partition stats and the
// Alg. 3 split. The recording is complete only when the call returns OK.
//
// With `cached` non-null this is a hit: steps (3)-(6) from a plan recorded
// under the same options and placement kind; q and g are not read. The
// cached partitions go to the placement in their recorded order and the
// recorded host share runs on the CPU, so embeddings, counters, simulated
// seconds, partition stats and the Alg. 3 split equal the recording run's.
// build_seconds and partition_seconds are 0.
//
// A null `placement` runs inline: a card private to the run, matched on
// the calling thread under options.fpga and options.variant, recording one
// wall `match` span.
//
// Reentrancy: RunFast keeps all state on the stack (no globals, no shared
// mutable caches), so concurrent calls over the same immutable Graph are
// safe. The service layer (src/service/) relies on this.
StatusOr<FastRunResult> RunFast(const QueryGraph& q, const Graph& g,
                                const FastRunOptions& options = {},
                                CardPlacement* placement = nullptr,
                                const CompiledPlan* cached = nullptr,
                                CompiledPlan* record = nullptr);

// The miss path from a prebuilt CST and matching order: steps (2)-(6) as in
// RunFast. `order` must be tree-connected with order.root equal to the CST's
// BFS-tree root. `build_seconds` is reported in the result (pass the
// measured construction time). `options.explicit_order` and
// `options.order_policy` are ignored.
StatusOr<FastRunResult> RunFastWithCst(const Cst& cst, const MatchingOrder& order,
                                       const FastRunOptions& options = {},
                                       double build_seconds = 0.0,
                                       CompiledPlan* record = nullptr,
                                       CardPlacement* placement = nullptr);

// Effective partition thresholds for a device (δ_S, δ_D derivation).
PartitionConfig DerivePartitionConfig(const FpgaConfig& fpga, std::size_t query_size,
                                      const PartitionConfig& requested);

// Multi-FPGA extension (Sec. VII-E): RunFast over N offline cards. Each
// partition is matched as inline and assigned to the card with the least
// accumulated estimated workload, whose busy time grows by the partition's
// kernel + PCIe seconds. The makespan composes the busiest card with the
// shared host-side build and partition phases.
struct MultiFpgaResult {
  std::uint64_t embeddings = 0;
  std::size_t num_partitions = 0;
  std::vector<double> device_seconds;  // simulated busy time per device
  double makespan_seconds = 0;
  double build_seconds = 0;
  double partition_seconds = 0;
};

StatusOr<MultiFpgaResult> RunMultiFpga(const QueryGraph& q, const Graph& g,
                                       std::size_t num_devices,
                                       const FastRunOptions& options = {});

}  // namespace fast

#endif  // FAST_CORE_DRIVER_H_
