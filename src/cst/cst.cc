#include "cst/cst.h"

#include <algorithm>
#include <cstdio>

#include "obs/profiler.h"
#include "simd/bitset.h"
#include "simd/intersect.h"
#include "util/logging.h"
#include "util/stats.h"

namespace fast {

std::shared_ptr<const CstLayout> CstLayout::Create(const QueryGraph& q, VertexId root) {
  auto layout = std::shared_ptr<CstLayout>(new CstLayout());
  layout->query_ = q;
  layout->tree_ = BfsTree::Build(q, root);
  const std::size_t n = q.NumVertices();
  layout->n_ = n;
  layout->slot_of_.assign(n * n, -1);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId w : q.neighbors(u)) {
      if (layout->slot_of_[u * n + w] >= 0) continue;
      layout->slot_of_[u * n + w] = static_cast<int>(layout->edges_.size());
      const bool tree =
          layout->tree_.parent(w) == u || layout->tree_.parent(u) == w;
      layout->edges_.push_back({u, w, tree});
    }
  }
  return layout;
}

std::span<const std::uint32_t> Cst::Neighbors(VertexId u, VertexId u_prime,
                                              std::uint32_t src_pos) const {
  const int slot = layout_->SlotOf(u, u_prime);
  FAST_DCHECK(slot >= 0);
  return adj_[slot].Neighbors(src_pos);
}

bool Cst::HasCstEdge(VertexId u, std::uint32_t src_pos, VertexId u_prime,
                     std::uint32_t dst_pos) const {
  const auto nbrs = Neighbors(u, u_prime, src_pos);
  return std::binary_search(nbrs.begin(), nbrs.end(), dst_pos);
}

std::size_t Cst::SizeWords() const {
  std::size_t words = 0;
  for (const auto& c : candidates_) words += c.size();
  for (const auto& e : adj_) words += e.offsets.size() + e.targets.size();
  return words;
}

std::uint32_t Cst::MaxAdjacencyDegree() const {
  std::uint32_t max_deg = 0;
  for (const auto& e : adj_) {
    for (std::size_t i = 0; i + 1 < e.offsets.size(); ++i) {
      max_deg = std::max(max_deg, e.offsets[i + 1] - e.offsets[i]);
    }
  }
  return max_deg;
}

std::size_t Cst::TotalCandidates() const {
  std::size_t total = 0;
  for (const auto& c : candidates_) total += c.size();
  return total;
}

Status Cst::Validate() const {
  if (layout_ == nullptr) return Status::FailedPrecondition("CST has no layout");
  const std::size_t n = NumQueryVertices();
  if (n != layout_->NumQueryVertices()) {
    return Status::Internal("candidate-set count does not match layout");
  }
  if (adj_.size() != layout_->edges().size()) {
    return Status::Internal("edge-list count does not match layout");
  }
  for (std::size_t s = 0; s < adj_.size(); ++s) {
    const auto& edge = layout_->edges()[s];
    const auto& el = adj_[s];
    if (el.offsets.size() != candidates_[edge.from].size() + 1) {
      return Status::Internal("edge list " + std::to_string(s) + " offset size mismatch");
    }
    if (!el.offsets.empty() && el.offsets.front() != 0) {
      return Status::Internal("edge list does not start at 0");
    }
    for (std::size_t i = 0; i + 1 < el.offsets.size(); ++i) {
      if (el.offsets[i] > el.offsets[i + 1]) {
        return Status::Internal("edge list offsets not monotone");
      }
      auto nbrs = el.Neighbors(static_cast<std::uint32_t>(i));
      for (std::size_t j = 0; j < nbrs.size(); ++j) {
        if (nbrs[j] >= candidates_[edge.to].size()) {
          return Status::Internal("edge target out of range");
        }
        if (j > 0 && nbrs[j - 1] >= nbrs[j]) {
          return Status::Internal("edge targets not strictly sorted");
        }
      }
    }
    if (!el.offsets.empty() && el.offsets.back() != el.targets.size()) {
      return Status::Internal("edge list final offset mismatch");
    }
    // The reverse slot must carry the same number of pairs.
    const int rev = layout_->SlotOf(edge.to, edge.from);
    if (rev < 0) return Status::Internal("missing reverse slot");
    if (adj_[rev].targets.size() != el.targets.size()) {
      return Status::Internal("directed pair count asymmetry on slot " + std::to_string(s));
    }
  }
  return Status::OK();
}

std::string Cst::Summary() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "CST[cands=%zu words=%zu D=%u]", TotalCandidates(),
                SizeWords(), MaxAdjacencyDegree());
  return buf;
}

namespace {

// Marks, per query vertex, which data vertices are candidates (byte mask over
// V(G)) and keeps the sorted candidate list in sync.
struct CandidateSets {
  explicit CandidateSets(std::size_t n_query, std::size_t n_data)
      : in_set(n_query, std::vector<char>(n_data, 0)), lists(n_query) {}

  std::vector<std::vector<char>> in_set;
  std::vector<std::vector<VertexId>> lists;
};

// Label-and-degree filter (the "local features" check of Alg. 1 lines 2/4).
inline bool PassesLdf(const QueryGraph& q, const Graph& g, VertexId u, VertexId v) {
  return g.label(v) == q.label(u) && g.degree(v) >= q.degree(u);
}

}  // namespace

StatusOr<Cst> BuildCst(const QueryGraph& q, const Graph& g, VertexId root,
                       const CstBuildOptions& options) {
  if (root >= q.NumVertices()) {
    return Status::InvalidArgument("root out of range");
  }
  auto layout = CstLayout::Create(q, root);
  const BfsTree& tree = layout->tree();
  const std::size_t nq = q.NumVertices();
  const std::size_t ng = g.NumVertices();

  CandidateSets cs(nq, ng);

  // Per-query-edge label requirements (all zero for unlabelled inputs).
  std::vector<Label> q_edge_label(nq * nq, 0);
  for (VertexId a = 0; a < nq; ++a) {
    for (VertexId b : q.neighbors(a)) q_edge_label[a * nq + b] = q.EdgeLabel(a, b);
  }

  // --- Top-down construction (Alg. 1 lines 1-7), candidate sets only. ---
  for (VertexId v : g.VerticesWithLabel(q.label(root))) {
    if (PassesLdf(q, g, root, v)) {
      cs.in_set[root][v] = 1;
      cs.lists[root].push_back(v);
    }
  }
  const bool unlabelled = !g.has_edge_labels();
  for (VertexId u : tree.bfs_order()) {
    if (u == root) continue;
    const VertexId up = tree.parent(u);
    const Label want = q_edge_label[up * nq + u];
    auto& mask = cs.in_set[u];
    auto& list = cs.lists[u];
    // Unlabelled graphs carry edge label 0 everywhere: a non-zero requirement
    // can never match, and a zero requirement needs no per-neighbor check.
    if (unlabelled && want != 0) continue;
    for (VertexId vp : cs.lists[up]) {
      const auto nbrs = g.neighbors(vp);
      if (unlabelled) {
        for (const VertexId w : nbrs) {
          if (!mask[w] && PassesLdf(q, g, u, w)) {
            mask[w] = 1;
            list.push_back(w);
          }
        }
        continue;
      }
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId w = nbrs[i];
        if (!mask[w] && g.EdgeLabelAt(vp, i) == want && PassesLdf(q, g, u, w)) {
          mask[w] = 1;
          list.push_back(w);
        }
      }
    }
    std::sort(list.begin(), list.end());
  }

  // --- Refinement (Alg. 1 lines 8-14, plus optional extra rounds). ---
  // Bottom-up: v in C(u) must have, for every t_q child u_c, at least one
  // neighbor in C(u_c). Top-down: v in C(u) must have a supporting parent
  // candidate. Removals update masks so later vertices see the shrunken sets.
  auto refine_pass = [&](bool bottom_up) {
    const auto& order = tree.bfs_order();
    auto visit = [&](VertexId u) {
      auto& list = cs.lists[u];
      auto& mask = cs.in_set[u];
      std::size_t write = 0;
      for (VertexId v : list) {
        bool valid = true;
        // Any-supporting-neighbor probe of v against C(other), with the
        // edge-label branch hoisted for unlabelled graphs.
        const auto supported = [&](VertexId other, Label want) {
          const auto nbrs = g.neighbors(v);
          if (unlabelled) {
            if (want != 0) return false;
            for (const VertexId w : nbrs) {
              if (cs.in_set[other][w]) return true;
            }
            return false;
          }
          for (std::size_t i = 0; i < nbrs.size(); ++i) {
            if (cs.in_set[other][nbrs[i]] && g.EdgeLabelAt(v, i) == want) {
              return true;
            }
          }
          return false;
        };
        if (bottom_up) {
          for (VertexId uc : tree.children(u)) {
            if (!supported(uc, q_edge_label[u * nq + uc])) {
              valid = false;
              break;
            }
          }
        } else if (u != root) {
          const VertexId up = tree.parent(u);
          valid = supported(up, q_edge_label[up * nq + u]);
        }
        if (valid) {
          list[write++] = v;
        } else {
          mask[v] = 0;
        }
      }
      list.resize(write);
    };
    if (bottom_up) {
      for (auto it = order.rbegin(); it != order.rend(); ++it) visit(*it);
    } else {
      for (VertexId u : order) visit(u);
    }
  };

  refine_pass(/*bottom_up=*/true);
  for (int r = 0; r < options.refine_rounds; ++r) {
    refine_pass(/*bottom_up=*/false);
    refine_pass(/*bottom_up=*/true);
  }

  // --- Materialize adjacency for every directed slot (incl. non-tree edges,
  // Alg. 1 lines 15-19). Candidates are sorted, so for unlabelled slots each
  // row is exactly intersect_pos(neighbors(v), C(to)) — positions into dst,
  // already ascending — or, when v is a hub, a bitmap-filtered selection of
  // dst at O(|C(to)|) independent of deg(v). Labelled slots keep the scalar
  // mask + lower_bound path. ---
  FAST_PROF_STAGE("filter");
  Cst cst;
  cst.layout_ = layout;
  cst.candidates_ = cs.lists;
  cst.non_tree_materialized_ = options.materialize_non_tree;
  cst.adj_.resize(layout->edges().size());
  const simd::Kernels& kern = simd::Active();
  std::vector<std::uint32_t> row;

  for (std::size_t s = 0; s < layout->edges().size(); ++s) {
    const auto [from, to, is_tree] = layout->edges()[s];
    const auto& src = cst.candidates_[from];
    const auto& dst = cst.candidates_[to];
    auto& el = cst.adj_[s];
    el.offsets.assign(src.size() + 1, 0);
    if (!is_tree && !options.materialize_non_tree) continue;  // CPI mode
    const Label want = q_edge_label[from * nq + to];
    if (unlabelled) {
      if (want != 0) continue;  // no edge can carry a non-zero label
      row.resize(dst.size());
      el.targets.clear();
      for (std::size_t i = 0; i < src.size(); ++i) {
        const VertexId v = src[i];
        std::size_t cnt;
        if (const auto bits = g.HubAdjacencyBitmap(v); !bits.empty()) {
          cnt = kern.filter_by_bitmap(bits.data(), ng, dst.data(), dst.size(),
                                      row.data());
        } else {
          const auto nbrs = g.neighbors(v);
          cnt = kern.intersect_pos(nbrs.data(), nbrs.size(), dst.data(),
                                   dst.size(), row.data());
        }
        el.offsets[i + 1] = el.offsets[i] + static_cast<std::uint32_t>(cnt);
        el.targets.insert(el.targets.end(), row.begin(),
                          row.begin() + static_cast<std::ptrdiff_t>(cnt));
      }
      continue;
    }
    for (std::size_t i = 0; i < src.size(); ++i) {
      const VertexId v = src[i];
      std::uint32_t count = 0;
      const auto nbrs = g.neighbors(v);
      for (std::size_t ni = 0; ni < nbrs.size(); ++ni) {
        if (cs.in_set[to][nbrs[ni]] && g.EdgeLabelAt(v, ni) == want) ++count;
      }
      el.offsets[i + 1] = el.offsets[i] + count;
    }
    el.targets.resize(el.offsets.back());
    for (std::size_t i = 0; i < src.size(); ++i) {
      std::uint32_t cursor = el.offsets[i];
      const auto nbrs = g.neighbors(src[i]);
      for (std::size_t ni = 0; ni < nbrs.size(); ++ni) {
        const VertexId w = nbrs[ni];
        if (!cs.in_set[to][w] || g.EdgeLabelAt(src[i], ni) != want) continue;
        const auto it = std::lower_bound(dst.begin(), dst.end(), w);
        el.targets[cursor++] =
            static_cast<std::uint32_t>(it - dst.begin());
      }
      std::sort(el.targets.begin() + el.offsets[i], el.targets.begin() + el.offsets[i + 1]);
    }
  }
  return cst;
}

StatusOr<Cst> SubsetCst(const Cst& cst, const std::vector<std::vector<char>>& keep) {
  const std::size_t n = cst.NumQueryVertices();
  if (keep.size() != n) return Status::InvalidArgument("keep mask arity mismatch");

  Cst out;
  out.layout_ = cst.layout_;
  out.non_tree_materialized_ = cst.non_tree_materialized_;
  out.candidates_.resize(n);

  // Old position -> new position (or -1). Every array of the subset is
  // sized exactly: a 1/k split that reserved its parent's sizes would keep
  // up to k times its real footprint alive for as long as it is cached.
  std::vector<std::vector<std::int32_t>> remap(n);
  for (VertexId u = 0; u < n; ++u) {
    const auto cands = cst.Candidates(u);
    if (keep[u].size() != cands.size()) {
      return Status::InvalidArgument("keep mask size mismatch at query vertex " +
                                     std::to_string(u));
    }
    out.candidates_[u].reserve(static_cast<std::size_t>(
        std::count_if(keep[u].begin(), keep[u].end(), [](char k) { return k != 0; })));
    remap[u].assign(cands.size(), -1);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (keep[u][i]) {
        remap[u][i] = static_cast<std::int32_t>(out.candidates_[u].size());
        out.candidates_[u].push_back(cands[i]);
      }
    }
  }

  const auto& edges = cst.layout_->edges();
  out.adj_.resize(edges.size());
  // Targets are filtered into one scratch buffer, then copied out once at
  // their exact size.
  std::vector<std::uint32_t> scratch;
  for (std::size_t s = 0; s < edges.size(); ++s) {
    const auto [from, to, is_tree] = edges[s];
    const auto& src_remap = remap[from];
    const auto& dst_remap = remap[to];
    const auto& in = cst.adj_[s];
    auto& el = out.adj_[s];
    el.offsets.assign(out.candidates_[from].size() + 1, 0);
    scratch.clear();
    // Kept rows appear in ascending src_remap order (the remap preserves
    // order), so one pass filters + remaps and records offsets as it goes.
    // Remapped targets stay ascending within a row for the same reason.
    std::uint32_t row = 0;
    for (std::size_t i = 0; i < src_remap.size(); ++i) {
      if (src_remap[i] < 0) continue;
      for (std::uint32_t t : in.Neighbors(static_cast<std::uint32_t>(i))) {
        if (dst_remap[t] >= 0) {
          scratch.push_back(static_cast<std::uint32_t>(dst_remap[t]));
        }
      }
      el.offsets[++row] = static_cast<std::uint32_t>(scratch.size());
    }
    el.targets.assign(scratch.begin(), scratch.end());
  }
  return out;
}

}  // namespace fast
