#include "core/cpu_matcher.h"

#include "core/step_plan.h"
#include "obs/profiler.h"
#include "simd/intersect.h"
#include "util/logging.h"

namespace fast {

namespace {

struct CpuMatchState {
  const Cst* cst;
  const std::vector<VertexId>* order;
  const simd::Kernels* kernels;                   // pinned once per match
  std::vector<OrderStep> steps;                   // per order index
  std::vector<std::uint32_t> root_positions;      // iota over C(order[0])
  std::vector<std::vector<std::uint32_t>> scratch;  // per-depth intersect buffer
  std::vector<std::uint32_t> positions;           // matched candidate positions
  std::vector<VertexId> data_vertices;            // matched data vertices
  std::vector<std::uint64_t> dup_filter;          // per-depth 64-bit vertex bloom
  std::vector<VertexId> embedding;                // query-vertex indexed
  ResultCollector* collector;
  std::uint64_t count = 0;
  const CancelToken* cancel = nullptr;
  std::uint32_t probe_countdown = kProbeStride;
  bool aborted = false;
  bool use_dup_filter = false;

  // Probe the token once per kProbeStride expansions: frequent enough to
  // bound overrun, rare enough that the clock read stays off the hot path.
  static constexpr std::uint32_t kProbeStride = 256;

  // The O(depth) duplicate scan is preceded by a 64-bit bloom probe once the
  // pattern is deep enough for the scan to cost more than the filter upkeep.
  static constexpr std::size_t kDupFilterMinVertices = 8;

  // Bulk-charges `m` virtual expansions against the probe budget, preserving
  // the probe-at-least-every-kProbeStride contract when a whole candidate
  // span is consumed by one batched intersection instead of a scalar loop.
  void ChargeProbes(std::size_t m) {
    while (m >= probe_countdown) {
      m -= probe_countdown;
      probe_countdown = kProbeStride;
      if (cancel != nullptr && cancel->Cancelled()) {
        aborted = true;
        return;
      }
    }
    probe_countdown -= static_cast<std::uint32_t>(m);
  }

  bool IsDuplicate(std::size_t depth, VertexId v) const {
    if (use_dup_filter &&
        (dup_filter[depth] & (std::uint64_t{1} << (v & 63))) == 0) {
      return false;  // bit clear: v cannot appear in the prefix
    }
    for (std::size_t j = 0; j < depth; ++j) {
      if (data_vertices[j] == v) return true;
    }
    return false;
  }

  void Recurse(std::size_t depth) {
    const std::size_t n = order->size();
    const OrderStep& step = steps[depth];
    const VertexId u = step.u;
    std::span<const std::uint32_t> cands;
    if (depth == 0) {
      cands = root_positions;
    } else {
      const auto pp = static_cast<std::size_t>(step.parent_pos);
      cands = cst->Neighbors((*order)[pp], u, positions[pp]);
    }
    // Backward (non-tree) edges: a candidate position t of u survives iff t
    // is a CST-neighbor of every already-matched backward endpoint. Both
    // sides are sorted position lists, so the whole span is filtered with
    // one intersection per backward edge instead of a binary search per
    // (candidate, edge) pair; later edges refine the scratch buffer in
    // place.
    const auto& bwd = step.backward;
    if (!bwd.empty() && !cands.empty()) {
      FAST_PROF_STAGE("intersect");
      ChargeProbes(cands.size());
      if (aborted) return;
      auto& buf = scratch[depth];
      buf.resize(cands.size());
      const std::uint32_t* cur = cands.data();
      std::size_t cur_n = cands.size();
      for (const auto& [un, jpos] : bwd) {
        const auto nbrs =
            cst->Neighbors(un, u, positions[static_cast<std::size_t>(jpos)]);
        cur_n = kernels->intersect(cur, cur_n, nbrs.data(), nbrs.size(),
                                   buf.data());
        cur = buf.data();
        if (cur_n == 0) return;
      }
      cands = {cur, cur_n};
    }
    for (std::uint32_t t : cands) {
      if (--probe_countdown == 0) {
        probe_countdown = kProbeStride;
        if (cancel != nullptr && cancel->Cancelled()) aborted = true;
      }
      if (aborted) return;
      const VertexId v = cst->Candidate(u, t);
      if (IsDuplicate(depth, v)) continue;
      positions[depth] = t;
      data_vertices[depth] = v;
      if (depth + 1 == n) {
        ++count;
        if (collector != nullptr) {
          for (std::size_t j = 0; j <= depth; ++j) embedding[(*order)[j]] = data_vertices[j];
          collector->OnEmbedding(embedding);
        }
      } else {
        if (use_dup_filter) {
          dup_filter[depth + 1] =
              dup_filter[depth] | (std::uint64_t{1} << (v & 63));
        }
        Recurse(depth + 1);
      }
    }
  }
};

}  // namespace

StatusOr<std::uint64_t> MatchCstOnCpu(const Cst& cst, const MatchingOrder& order,
                                      ResultCollector* collector,
                                      const CancelToken* cancel) {
  // Entry probe: an already-tripped token aborts before any work, so even
  // graphs smaller than the probe stride observe cancellation.
  if (cancel != nullptr && cancel->Cancelled()) {
    return Status::DeadlineExceeded("cpu match cancelled mid-match");
  }
  CpuMatchState st;
  FAST_ASSIGN_OR_RETURN(st.steps, BuildStepPlan(cst, order));
  const std::size_t n = st.steps.size();
  st.cst = &cst;
  st.order = &order.order;
  st.kernels = &simd::Active();
  st.root_positions.resize(cst.NumCandidates(order.order[0]));
  for (std::uint32_t i = 0; i < st.root_positions.size(); ++i) {
    st.root_positions[i] = i;
  }
  st.scratch.assign(n, {});
  st.positions.assign(n, 0);
  st.data_vertices.assign(n, 0);
  st.use_dup_filter = n > CpuMatchState::kDupFilterMinVertices;
  st.dup_filter.assign(n + 1, 0);
  st.embedding.assign(n, 0);
  st.collector = collector;
  st.cancel = cancel;
  if (cst.NumCandidates(order.order[0]) > 0) st.Recurse(0);
  if (st.aborted) {
    return Status::DeadlineExceeded("cpu match cancelled mid-match");
  }
  return st.count;
}

}  // namespace fast
