#ifndef FAST_GRAPH_GRAPH_H_
#define FAST_GRAPH_GRAPH_H_

// Immutable labelled undirected graph in CSR form, plus its mutable builder.
//
// This is the data-graph substrate of the paper (Sec. II-A): undirected,
// vertex-labelled, connected (not enforced), simple graphs. Adjacency lists
// are sorted so edge existence is O(log d) and set intersections are linear.
//
// Edge labels (the extension Sec. II-A notes is "readily" supported) are
// optional: AddEdge defaults to label 0 and an all-zero graph stores no
// label array. A directed graph can be encoded with two edge labels
// (forward/backward) on a doubled vertex set, so no separate machinery is
// provided for direction.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace fast {

using VertexId = std::uint32_t;
using Label = std::uint32_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

struct GraphDelta;  // graph/graph_delta.h

// Immutable CSR graph. Construct via GraphBuilder, or from a base graph and a
// GraphDelta via ApplyDelta.
class Graph {
 public:
  Graph() = default;

  std::size_t NumVertices() const { return labels_.size(); }
  std::size_t NumEdges() const { return adjacency_.size() / 2; }

  Label label(VertexId v) const { return labels_[v]; }

  std::uint32_t degree(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  // Sorted neighbor list of v.
  std::span<const VertexId> neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  // O(log d) membership test on the sorted adjacency of u.
  bool HasEdge(VertexId u, VertexId v) const;

  // Hub dual representation: vertices with degree > HubThreshold() also
  // store their adjacency as a |V|-bit bitmap so intersections against hubs
  // can take the word-parallel path (simd/intersect.h filter_by_bitmap). The
  // threshold max(64, |V|/32) keeps every bitmap row (|V|/8 bytes) no larger
  // than the sorted list it shadows (4·deg bytes).
  std::uint32_t HubThreshold() const { return hub_threshold_; }
  std::size_t NumHubs() const { return hub_ids_.size(); }

  // Bitmap adjacency row of v, or an empty span when v is not a hub. The row
  // spans bits [0, NumVertices()); probe with simd::TestBit.
  std::span<const std::uint64_t> HubAdjacencyBitmap(VertexId v) const;

  // True when any edge carries a non-zero label.
  bool has_edge_labels() const { return !edge_labels_.empty(); }

  // Label of v's i-th neighbor edge (0 when the graph is edge-unlabelled).
  Label EdgeLabelAt(VertexId v, std::size_t i) const {
    return edge_labels_.empty() ? 0 : edge_labels_[offsets_[v] + i];
  }

  // Label of edge (u, v); 0 when the edge is absent or unlabelled. Combine
  // with HasEdge when absence matters.
  Label EdgeLabelBetween(VertexId u, VertexId v) const;

  // O(log d) labelled membership test: edge (u, v) exists with `label`.
  bool HasEdgeWithLabel(VertexId u, VertexId v, Label label) const {
    return HasEdge(u, v) && EdgeLabelBetween(u, v) == label;
  }

  // All vertices carrying `label`, sorted ascending. Empty span for labels
  // never seen in the graph.
  std::span<const VertexId> VerticesWithLabel(Label label) const;

  // Number of distinct labels present (max label value + 1).
  std::size_t NumLabels() const { return label_index_offsets_.empty()
                                          ? 0
                                          : label_index_offsets_.size() - 1; }

  std::uint32_t MaxDegree() const { return max_degree_; }
  double AverageDegree() const {
    return NumVertices() == 0
               ? 0.0
               : 2.0 * static_cast<double>(NumEdges()) / static_cast<double>(NumVertices());
  }

  // Approximate resident memory of the CSR arrays (adjacency, edge labels,
  // label index and hub rows), in bytes.
  std::size_t MemoryBytes() const;

  // One-line summary, e.g. "|V|=3.18M |E|=17.24M d_avg=10.84 D=464368 L=11".
  std::string Summary() const;

 private:
  friend class GraphBuilder;
  friend StatusOr<Graph> ApplyDelta(const Graph& base, const GraphDelta& delta);

  // Derives max degree, the label index and the hub rows from labels_,
  // offsets_ and adjacency_; Internal when the CSR has an odd directed edge
  // count. Every construction path ends here, so the indexes cannot drift.
  Status FinishIndexes();

  std::vector<Label> labels_;
  std::vector<std::uint64_t> offsets_;   // size |V|+1
  std::vector<VertexId> adjacency_;      // size 2|E|, sorted per vertex
  std::vector<Label> edge_labels_;       // parallel to adjacency_; empty if unused
  std::uint32_t max_degree_ = 0;

  // Label -> sorted vertex list, in CSR form over label values.
  std::vector<std::uint64_t> label_index_offsets_;  // size (max_label+2)
  std::vector<VertexId> label_index_;               // size |V|

  // Hub dual representation (see HubAdjacencyBitmap).
  std::uint32_t hub_threshold_ = 0;
  std::size_t hub_row_words_ = 0;          // (|V|+63)/64
  std::vector<VertexId> hub_ids_;          // sorted ascending
  std::vector<std::uint64_t> hub_bits_;    // NumHubs() rows of hub_row_words_
};

// Accumulates vertices and edges, then produces a canonical Graph:
// self-loops dropped, duplicate edges deduplicated, adjacency sorted.
class GraphBuilder {
 public:
  GraphBuilder() = default;
  explicit GraphBuilder(std::size_t expected_vertices) {
    labels_.reserve(expected_vertices);
  }

  // Adds a vertex and returns its id (ids are dense, 0-based).
  VertexId AddVertex(Label label) {
    labels_.push_back(label);
    return static_cast<VertexId>(labels_.size() - 1);
  }

  // Adds an undirected edge with an optional edge label. Both endpoints must
  // already exist. Duplicate (u, v) pairs are deduplicated at Build() time,
  // keeping the label seen first.
  Status AddEdge(VertexId u, VertexId v, Label edge_label = 0);

  std::size_t NumVertices() const { return labels_.size(); }
  std::size_t NumEdgesAdded() const { return edges_.size(); }

  // Builds the CSR graph. The builder is left empty afterwards.
  StatusOr<Graph> Build();

 private:
  struct PendingEdge {
    VertexId u;
    VertexId v;
    Label label;
  };

  std::vector<Label> labels_;
  std::vector<PendingEdge> edges_;
  bool any_edge_label_ = false;
};

}  // namespace fast

#endif  // FAST_GRAPH_GRAPH_H_
