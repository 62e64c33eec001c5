#ifndef FAST_CORE_DRIVER_H_
#define FAST_CORE_DRIVER_H_

// Host-side driver: the end-to-end CPU-FPGA flow of Fig. 2.
//
//  (1) build the CST on the CPU (Alg. 1)
//  (2) partition it to fit BRAM (Alg. 2)
//  (3) stream partitions over PCIe to card DRAM
//  (4) the kernel loads each partition into BRAM and matches it (Algs. 4-8)
//  (5) optionally keep a δ-share of the workload on the CPU (Alg. 3)
//  (6) collect results
//
// Host-side times (CST construction, partitioning, CPU share) are measured
// wall-clock; kernel and PCIe times are simulated by the device model. The
// paper overlaps partitioning with kernel execution, and the CPU share runs
// after partitioning finishes, so:
//
//   total = build + max(partition + cpu_share, pcie + kernel)

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

  // Streaming per-embedding callback, invoked from the matching thread as
  // results are found (before storage). Independent of store_limit.
  std::function<void(std::span<const VertexId>)> embedding_callback;

  // Cooperative cancellation (util/cancel.h): probed between pipeline phases
  // and inside the matching loops (once per kernel round, every few hundred
  // CPU-side expansions). A tripped token makes the run return
  // DEADLINE_EXCEEDED instead of finishing. Non-owning; the caller keeps the
  // token alive for the duration of the run. nullptr = never cancelled.
  const CancelToken* cancel = nullptr;

  // Optional per-request span recorder (obs/trace.h). RunFastWithCst records
  // a wall `match` span over partition + matching + CPU share, plus the
  // simulated `dma`/`kernel` durations from the device model. The service
  // layers record the surrounding spans (queue, snapshot, cst_build, remap).
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

// Runs the full FAST pipeline for query q over data graph g.
//
// Reentrancy: RunFast keeps all state on the stack (no globals, no shared
// mutable caches), so concurrent calls over the same immutable Graph are
// safe. The service layer (src/service/) relies on this.
StatusOr<FastRunResult> RunFast(const QueryGraph& q, const Graph& g,
                                const FastRunOptions& options = {});

// Runs steps (2)-(6) of the pipeline from a prebuilt CST and matching order,
// skipping order computation and CST construction. This is the plan-miss
// path of the service layer. `order` must be tree-connected with order.root
// equal to the CST's BFS-tree root. `build_seconds` is reported in the result
// (pass the measured construction time). `options.explicit_order` and
// `options.order_policy` are ignored.
//
// A non-null `compiled` records the run's plan (core/compiled_plan.h): the
// order, every partition as Alg. 2 emits it (each is matched as soon as it
// is emitted, exactly as without recording), the partition stats and the
// Alg. 3 split. The recording is complete only when the call returns OK.
//
// This call simulates a device PRIVATE to the request: partitions match
// inline on the calling thread and every call pays its own PCIe transfers.
// device/device_executor.h's RunCstOnDevice is the shared-device sibling —
// the same steps, with partitions batched onto one executor across
// concurrent requests.
StatusOr<FastRunResult> RunFastWithCst(const Cst& cst, const MatchingOrder& order,
                                       const FastRunOptions& options = {},
                                       double build_seconds = 0.0,
                                       CompiledPlan* compiled = nullptr);

// Runs steps (3)-(6) from a plan recorded by RunFastWithCst under the same
// options: the plan-hit path. The cached partitions are matched in their
// recorded order and the recorded host share runs on the CPU, so
// embeddings, counters, simulated seconds, partition stats and the Alg. 3
// split equal the recording run's. Nothing is built or partitioned:
// build_seconds and partition_seconds are 0.
StatusOr<FastRunResult> RunCompiledPlan(const CompiledPlan& plan,
                                        const FastRunOptions& options = {});

// Effective partition thresholds for a device (δ_S, δ_D derivation).
PartitionConfig DerivePartitionConfig(const FpgaConfig& fpga, std::size_t query_size,
                                      const PartitionConfig& requested);

// Multi-FPGA extension (Sec. VII-E): partitions are assigned to the device
// with the minimum accumulated estimated workload; the makespan composes with
// the shared host-side build/partition phases.
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
