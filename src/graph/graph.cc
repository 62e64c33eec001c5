#include "graph/graph.h"

#include <algorithm>
#include <cstdio>

#include "simd/bitset.h"
#include "util/logging.h"
#include "util/stats.h"

namespace fast {

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices()) return false;
  // Search the smaller adjacency list.
  if (degree(u) > degree(v)) std::swap(u, v);
  auto adj = neighbors(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

Label Graph::EdgeLabelBetween(VertexId u, VertexId v) const {
  if (edge_labels_.empty() || u >= NumVertices() || v >= NumVertices()) return 0;
  auto adj = neighbors(u);
  const auto it = std::lower_bound(adj.begin(), adj.end(), v);
  if (it == adj.end() || *it != v) return 0;
  return edge_labels_[offsets_[u] + static_cast<std::size_t>(it - adj.begin())];
}

std::span<const std::uint64_t> Graph::HubAdjacencyBitmap(VertexId v) const {
  if (hub_ids_.empty() || v >= NumVertices() || degree(v) <= hub_threshold_) {
    return {};
  }
  const auto it = std::lower_bound(hub_ids_.begin(), hub_ids_.end(), v);
  if (it == hub_ids_.end() || *it != v) return {};
  const std::size_t row = static_cast<std::size_t>(it - hub_ids_.begin());
  return {hub_bits_.data() + row * hub_row_words_, hub_row_words_};
}

std::span<const VertexId> Graph::VerticesWithLabel(Label label) const {
  if (label + 1 >= label_index_offsets_.size()) return {};
  return {label_index_.data() + label_index_offsets_[label],
          label_index_offsets_[label + 1] - label_index_offsets_[label]};
}

std::size_t Graph::MemoryBytes() const {
  return labels_.size() * sizeof(Label) + offsets_.size() * sizeof(std::uint64_t) +
         adjacency_.size() * sizeof(VertexId) +
         edge_labels_.size() * sizeof(Label) +
         label_index_offsets_.size() * sizeof(std::uint64_t) +
         label_index_.size() * sizeof(VertexId) +
         hub_ids_.size() * sizeof(VertexId) +
         hub_bits_.size() * sizeof(std::uint64_t);
}

std::string Graph::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "|V|=%s |E|=%s d_avg=%.2f D=%u L=%zu",
                HumanCount(static_cast<double>(NumVertices())).c_str(),
                HumanCount(static_cast<double>(NumEdges())).c_str(), AverageDegree(),
                MaxDegree(), NumLabels());
  return buf;
}

Status Graph::FinishIndexes() {
  const std::size_t n = labels_.size();
  if (adjacency_.size() % 2 != 0) {
    return Status::Internal("CSR symmetry broken: odd directed edge count");
  }

  max_degree_ = 0;
  for (std::size_t v = 0; v < n; ++v) {
    max_degree_ = std::max(max_degree_, degree(static_cast<VertexId>(v)));
  }

  // Label index.
  Label max_label = 0;
  for (Label l : labels_) max_label = std::max(max_label, l);
  const std::size_t n_labels = n == 0 ? 0 : static_cast<std::size_t>(max_label) + 1;
  label_index_offsets_.assign(n_labels + 1, 0);
  for (Label l : labels_) ++label_index_offsets_[l + 1];
  for (std::size_t i = 0; i < n_labels; ++i) {
    label_index_offsets_[i + 1] += label_index_offsets_[i];
  }
  label_index_.resize(n);
  std::vector<std::uint64_t> cursor(label_index_offsets_.begin(),
                                    label_index_offsets_.end());
  for (std::size_t v = 0; v < n; ++v) {
    label_index_[cursor[labels_[v]]++] = static_cast<VertexId>(v);
  }

  // Hub dual representation: bitmap adjacency rows for vertices whose degree
  // exceeds max(64, |V|/32), so each row costs at most as much as the sorted
  // list it shadows. ApplyDelta ends here too, so the rows track the live
  // snapshot automatically.
  hub_threshold_ =
      static_cast<std::uint32_t>(std::max<std::size_t>(64, n / 32));
  hub_row_words_ = (n + 63) / 64;
  for (std::size_t v = 0; v < n; ++v) {
    if (degree(static_cast<VertexId>(v)) > hub_threshold_) {
      hub_ids_.push_back(static_cast<VertexId>(v));
    }
  }
  hub_bits_.assign(hub_ids_.size() * hub_row_words_, 0);
  for (std::size_t row = 0; row < hub_ids_.size(); ++row) {
    const std::span<std::uint64_t> bits{
        hub_bits_.data() + row * hub_row_words_, hub_row_words_};
    for (VertexId w : neighbors(hub_ids_[row])) simd::SetBit(bits, w);
  }
  return Status::OK();
}

Status GraphBuilder::AddEdge(VertexId u, VertexId v, Label edge_label) {
  if (u >= labels_.size() || v >= labels_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (u == v) return Status::OK();  // Simple graph: silently drop self-loops.
  edges_.push_back({u, v, edge_label});
  any_edge_label_ |= edge_label != 0;
  return Status::OK();
}

StatusOr<Graph> GraphBuilder::Build() {
  Graph g;
  g.labels_ = std::move(labels_);
  const std::size_t n = g.labels_.size();
  const bool labelled = any_edge_label_;

  // Count degrees (both directions), then fill.
  std::vector<std::uint64_t> counts(n + 1, 0);
  for (const auto& e : edges_) {
    ++counts[e.u + 1];
    ++counts[e.v + 1];
  }
  for (std::size_t i = 0; i < n; ++i) counts[i + 1] += counts[i];
  g.offsets_ = counts;  // copy: counts reused as fill cursors
  g.adjacency_.resize(edges_.size() * 2);
  if (labelled) g.edge_labels_.resize(edges_.size() * 2);
  for (const auto& e : edges_) {
    if (labelled) {
      g.edge_labels_[counts[e.u]] = e.label;
      g.edge_labels_[counts[e.v]] = e.label;
    }
    g.adjacency_[counts[e.u]++] = e.v;
    g.adjacency_[counts[e.v]++] = e.u;
  }
  edges_.clear();
  edges_.shrink_to_fit();

  // Sort + dedup each adjacency list (stably keeping the first label seen
  // for duplicate pairs), then compact.
  std::vector<std::uint64_t> new_offsets(n + 1, 0);
  std::uint64_t write = 0;
  std::vector<std::pair<VertexId, Label>> scratch;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t begin = g.offsets_[v];
    const std::uint64_t end = g.offsets_[v + 1];
    std::uint64_t len = 0;
    if (labelled) {
      scratch.clear();
      for (std::uint64_t i = begin; i < end; ++i) {
        scratch.emplace_back(g.adjacency_[i], g.edge_labels_[i]);
      }
      std::stable_sort(scratch.begin(), scratch.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      std::uint64_t cursor = write;
      for (std::size_t i = 0; i < scratch.size(); ++i) {
        if (i > 0 && scratch[i].first == scratch[i - 1].first) continue;
        g.adjacency_[cursor] = scratch[i].first;
        g.edge_labels_[cursor] = scratch[i].second;
        ++cursor;
      }
      len = cursor - write;
    } else {
      std::sort(g.adjacency_.begin() + begin, g.adjacency_.begin() + end);
      auto unique_end =
          std::unique(g.adjacency_.begin() + begin, g.adjacency_.begin() + end);
      len = static_cast<std::uint64_t>(unique_end - (g.adjacency_.begin() + begin));
      if (write != begin) {
        std::copy(g.adjacency_.begin() + begin, g.adjacency_.begin() + begin + len,
                  g.adjacency_.begin() + write);
      }
    }
    new_offsets[v] = write;
    write += len;
  }
  new_offsets[n] = write;
  g.adjacency_.resize(write);
  g.adjacency_.shrink_to_fit();
  if (labelled) {
    g.edge_labels_.resize(write);
    g.edge_labels_.shrink_to_fit();
  }
  g.offsets_ = std::move(new_offsets);
  FAST_RETURN_IF_ERROR(g.FinishIndexes());
  return g;
}

}  // namespace fast
