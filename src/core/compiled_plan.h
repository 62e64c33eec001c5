#ifndef FAST_CORE_COMPILED_PLAN_H_
#define FAST_CORE_COMPILED_PLAN_H_

// A compiled plan: the request-independent output of Fig. 2 steps (1)-(2),
// i.e. the matching order and the CST already cut into the partitions Alg. 2
// streams to the card, plus the Alg. 3 host/card split when FAST-SHARE is on.
//
// Partitions depend only on (order, CST, partition config, δ), and the CST
// only on (query, graph snapshot), so under one pipeline configuration a plan
// is a pure function of (query, graph epoch). The pipeline (core/driver.h)
// records it on a miss while Alg. 2 runs (RunFast / RunFastWithCst with a
// non-null `record`): every partition is still handed to the placement the
// moment it is emitted, so partitioning keeps overlapping matching. A later
// run replays it (RunFast with a non-null `cached`) through any placement,
// with no CST build and no re-partition.
//
// A plan is immutable once recorded. Partitions are shared_ptr<const Cst>, so
// any number of concurrent requests, and the threads matching shared-device
// items, read the same partitions without copying them.

#include <cstddef>
#include <memory>
#include <vector>

#include "cst/cst.h"
#include "cst/cst_serialize.h"
#include "cst/partition.h"
#include "query/matching_order.h"

namespace fast {

// One card partition and its PCIe payload.
struct CompiledPartition {
  std::shared_ptr<const Cst> cst;
  std::size_t wire_bytes = 0;  // CstWireBytes(*cst)
};

inline CompiledPartition CompilePartition(Cst cst) {
  const std::size_t wire_bytes = CstWireBytes(cst);
  return {std::make_shared<const Cst>(std::move(cst)), wire_bytes};
}

struct CompiledPlan {
  MatchingOrder order;

  // Card partitions, in Alg. 2 emission order (the order they are matched
  // in, so replayed simulated times sum bit-identically).
  std::vector<CompiledPartition> fpga;
  PartitionStats partition_stats;

  // Alg. 3 split (cpu_share_delta > 0): the CSTs the host keeps, and the
  // estimated workloads W_C (host) and W_F (card).
  std::vector<std::shared_ptr<const Cst>> cpu;
  double w_cpu = 0.0;
  double w_fpga = 0.0;

  // Memory held by the plan's partitions: Σ Cst::SizeBytes(). The plan
  // cache's byte budget counts this.
  std::size_t SizeBytes() const {
    std::size_t bytes = 0;
    for (const CompiledPartition& p : fpga) bytes += p.cst->SizeBytes();
    for (const auto& c : cpu) bytes += c->SizeBytes();
    return bytes;
  }
};

}  // namespace fast

#endif  // FAST_CORE_COMPILED_PLAN_H_
