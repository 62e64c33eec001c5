#include "core/kernel.h"

#include <algorithm>

#include "core/step_plan.h"
#include "simd/intersect.h"

namespace fast {

namespace {

// One buffered partial result: candidate positions and the corresponding
// data vertices for order positions [0, depth), plus a resume cursor into
// the candidate list currently being expanded (Sec. VI-B: when |C(u)| exceeds
// the round budget, the remaining candidates are mapped in a later round).
struct LevelBuffer {
  // Flat storage; stride = 2 * n + 1 (positions, data vertices, cursor).
  std::vector<std::uint32_t> flat;
  std::size_t stride = 0;

  std::size_t Size() const { return stride == 0 ? 0 : flat.size() / stride; }
  bool Empty() const { return flat.empty(); }
  std::uint32_t* Back() { return flat.data() + flat.size() - stride; }
  void PopBack() { flat.resize(flat.size() - stride); }
  // Appends a zeroed row and returns it; the caller fills what it maps.
  std::uint32_t* PushBack() {
    flat.resize(flat.size() + stride);
    return Back();
  }
};

}  // namespace

StatusOr<KernelRunResult> RunKernel(const Cst& cst, const MatchingOrder& order,
                                    const FpgaConfig& config,
                                    ResultCollector* collector,
                                    std::vector<RoundWork>* round_trace,
                                    const CancelToken* cancel) {
  FAST_RETURN_IF_ERROR(config.Validate());
  FAST_ASSIGN_OR_RETURN(const std::vector<OrderStep> steps,
                        BuildStepPlan(cst, order));
  const std::size_t n = cst.NumQueryVertices();
  const std::size_t stride = 2 * n + 1;
  const std::uint32_t no = config.max_new_partials;
  // Levels 1..n-1 hold partial results with that many mapped vertices.
  std::vector<LevelBuffer> levels(n);
  for (auto& l : levels) l.stride = stride;

  KernelRunResult result;
  KernelCounters& c = result.counters;

  const auto root_cands = cst.Candidates(order.order[0]);
  std::size_t root_cursor = 0;
  std::vector<VertexId> embedding(n);

  // Edge Validator output: the survivors of one candidate span, refined in
  // place per backward edge. A span never exceeds N_o candidates.
  const simd::Kernels& kernels = simd::Active();
  std::vector<std::uint32_t> survivors(no);

  while (true) {
    // One probe per round: each round is bounded by N_o partials, so an
    // expired deadline aborts within one batch of work.
    if (cancel != nullptr && cancel->Cancelled()) {
      return Status::DeadlineExceeded("kernel run cancelled mid-match");
    }
    // Refill level 1 from root candidates when the buffer drains (Alg. 4
    // lines 2-3, batched to respect the N_o buffer bound).
    bool any = false;
    for (const auto& l : levels) any |= !l.Empty();
    if (!any) {
      if (root_cursor >= root_cands.size()) break;
      const std::size_t take =
          std::min<std::size_t>(no, root_cands.size() - root_cursor);
      for (std::size_t i = root_cursor; i < root_cursor + take; ++i) {
        std::uint32_t* row = levels[1].PushBack();
        row[0] = static_cast<std::uint32_t>(i);  // position
        row[n] = root_cands[i];                  // data vertex
      }
      root_cursor += take;
    }

    // Pick the deepest non-empty level (Sec. VI-B's overflow-avoidance rule).
    std::size_t depth = 0;
    for (std::size_t d = n; d-- > 1;) {
      if (!levels[d].Empty()) {
        depth = d;
        break;
      }
    }
    if (depth == 0) continue;  // only root refill happened; loop again

    ++c.rounds;
    const OrderStep& step = steps[depth];
    const VertexId u = step.u;
    const VertexId up = order.order[static_cast<std::size_t>(step.parent_pos)];
    std::uint32_t produced = 0;

    while (produced < no && !levels[depth].Empty()) {
      std::uint32_t* pi = levels[depth].Back();
      // Candidate list of u given this partial result: the CST adjacency of
      // the mapped parent candidate (Alg. 5 line 5).
      const auto cands =
          cst.Neighbors(up, u, pi[static_cast<std::size_t>(step.parent_pos)]);
      const std::uint32_t cursor = pi[2 * n];
      const std::uint32_t take =
          std::min(no - produced, static_cast<std::uint32_t>(cands.size()) - cursor);
      // Every p_o spawns one visited task and |backward| edge tasks before
      // any of them is validated.
      c.partial_results += take;
      c.visited_tasks += take;
      c.edge_tasks += std::uint64_t{take} * step.backward.size();

      // Edge validation (Alg. 7): a candidate position survives iff it is a
      // CST-neighbor of the mapping of every backward non-tree neighbor of
      // u. Both sides are sorted positions into C(u), so the whole span is
      // checked with one intersection per edge and survivors stay ascending.
      const std::uint32_t* valid = cands.data() + cursor;
      std::size_t num_valid = take;
      for (const auto& [un, jpos] : step.backward) {
        const auto nbrs = cst.Neighbors(un, u, pi[static_cast<std::size_t>(jpos)]);
        num_valid = kernels.intersect(valid, num_valid, nbrs.data(), nbrs.size(),
                                      survivors.data());
        valid = survivors.data();
        if (num_valid == 0) break;
      }

      for (std::size_t k = 0; k < num_valid; ++k) {
        const std::uint32_t t = valid[k];
        const VertexId v = cst.Candidate(u, t);
        // Visited validation (Alg. 6): v must differ from every mapped data
        // vertex; the FPGA compares against all of them in parallel.
        if (std::find(pi + n, pi + n + depth, v) != pi + n + depth) continue;

        // Synchronizer (Alg. 8): complete results are reported, partial ones
        // go back to the buffer one level deeper.
        if (depth + 1 == n) {
          ++c.results;
          ++result.embeddings;
          if (collector != nullptr) {
            for (std::size_t j = 0; j < depth; ++j) {
              embedding[order.order[j]] = pi[n + j];
            }
            embedding[u] = v;
            collector->OnEmbedding(embedding);
          }
        } else {
          std::uint32_t* row = levels[depth + 1].PushBack();
          std::copy(pi, pi + depth, row);
          std::copy(pi + n, pi + n + depth, row + n);
          row[depth] = t;
          row[n + depth] = v;
        }
      }
      produced += take;
      if (cursor + take == cands.size()) {
        levels[depth].PopBack();
      } else {
        pi[2 * n] = cursor + take;  // resume later rounds from here
      }
    }

    std::uint64_t occupancy = 0;
    for (const auto& l : levels) occupancy += l.Size();
    c.max_buffer_entries = std::max(c.max_buffer_entries, occupancy);

    if (round_trace != nullptr && produced > 0) {
      round_trace->push_back(
          {produced, static_cast<std::uint16_t>(step.backward.size())});
    }
  }

  return result;
}

double SimulatedKernelSeconds(const FpgaConfig& config, FastVariant variant,
                              const KernelRunResult& run, std::size_t cst_words,
                              std::size_t query_size) {
  double cycles = KernelCycles(config, variant, run.counters) +
                  ResultFlushCycles(config, run.embeddings, query_size);
  if (variant != FastVariant::kDram) {
    cycles += CstLoadCycles(config, cst_words);
  }
  return config.CyclesToSeconds(cycles);
}

}  // namespace fast
