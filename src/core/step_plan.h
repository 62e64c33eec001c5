#ifndef FAST_CORE_STEP_PLAN_H_
#define FAST_CORE_STEP_PLAN_H_

// The per-order-position execution plan shared by the two CST enumerators:
// the functional FPGA kernel (core/kernel.h) and the host backtracker
// (core/cpu_matcher.h). Both map order.order[i] at step i from the CST
// adjacency of its t_q parent and filter it against its backward non-tree
// neighbors, so both compile the order into the same steps.

#include <utility>
#include <vector>

#include "cst/cst.h"
#include "query/matching_order.h"
#include "util/status.h"

namespace fast {

struct OrderStep {
  VertexId u = kInvalidVertex;
  int parent_pos = -1;  // order position of u's t_q parent; -1 at the root
  // Backward non-tree neighbors of u as (query vertex, order position): the
  // edge-validation tasks t_n each new p_o spawns (Alg. 5 lines 10-12).
  // Forward non-tree edges are checked when the later endpoint maps.
  std::vector<std::pair<VertexId, int>> backward;
};

// One step per order position. InvalidArgument unless `order` covers every
// query vertex of `cst`, starts at the CST's BFS-tree root and maps each
// vertex after its t_q parent.
StatusOr<std::vector<OrderStep>> BuildStepPlan(const Cst& cst,
                                               const MatchingOrder& order);

}  // namespace fast

#endif  // FAST_CORE_STEP_PLAN_H_
