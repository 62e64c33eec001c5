#include "core/step_plan.h"

namespace fast {

StatusOr<std::vector<OrderStep>> BuildStepPlan(const Cst& cst,
                                               const MatchingOrder& order) {
  const std::size_t n = cst.NumQueryVertices();
  if (order.order.size() != n) {
    return Status::InvalidArgument("order arity does not match CST");
  }
  const BfsTree& tree = cst.layout().tree();
  if (order.order.empty() || order.order[0] != tree.root()) {
    return Status::InvalidArgument("order root does not match CST root");
  }
  std::vector<int> order_pos(n, -1);
  for (std::size_t i = 0; i < n; ++i) order_pos[order.order[i]] = static_cast<int>(i);
  std::vector<OrderStep> steps(n);
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId u = order.order[i];
    steps[i].u = u;
    if (i > 0) {
      const VertexId up = tree.parent(u);
      if (up == kInvalidVertex || order_pos[up] >= static_cast<int>(i)) {
        return Status::InvalidArgument("order is not tree-connected");
      }
      steps[i].parent_pos = order_pos[up];
    }
    for (VertexId un : tree.non_tree_neighbors(u)) {
      if (order_pos[un] < static_cast<int>(i)) {
        steps[i].backward.emplace_back(un, order_pos[un]);
      }
    }
  }
  return steps;
}

}  // namespace fast
