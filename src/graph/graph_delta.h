#ifndef FAST_GRAPH_GRAPH_DELTA_H_
#define FAST_GRAPH_GRAPH_DELTA_H_

// Batched vertex/edge updates against an immutable CSR Graph.
//
// The CSR substrate (graph/graph.h) is deliberately immutable: every reader
// in the pipeline assumes sorted adjacency and a frozen label index. Updates
// are therefore expressed as a GraphDelta batch, and ApplyDelta writes a
// fresh CSR off-line from {base graph + delta} without touching the base.
// The service layer (src/service/) publishes the result as a new epoch
// snapshot while in-flight queries finish on the old one.
//
// Semantics, applied in this order:
//   1. add_vertices: new vertices appended after the base ones, so the k-th
//      added vertex gets id |V_base| + k ("extended numbering").
//   2. remove_edges / add_edges: interpreted in the extended numbering.
//      Removing an absent edge is a no-op. Re-adding an existing edge keeps
//      the base label, and among duplicate adds the first in add_edges order
//      wins; to relabel an edge, remove and re-add it in the same delta.
//      Self-loops are dropped.
//   3. remove_vertices: each removed vertex disappears with its incident
//      edges (including edges added by this delta); surviving vertices are
//      compacted to dense ids in their extended-numbering order. Vertex ids
//      are thus per-snapshot: clients resolve external keys against the
//      snapshot they query.
//
// ApplyDelta is one linear merge over the base CSR, whose adjacency lists are
// already sorted and unique. The delta's removed and added edges are sorted
// into per-vertex runs (both directions of each edge). Vertices are then
// walked in extended-numbering order: an untouched vertex's list is copied
// as is, or filtered and remapped through the monotone compaction when
// vertices were removed; a touched vertex merges its filtered base list with
// its add run. The label index and hub rows are then derived as for a built
// graph. The cost is about one copy of the graph, O(|V| + |E|), plus
// O(|delta| log |delta|) for the runs; nothing is re-sorted per vertex.

#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"
#include "util/status.h"

namespace fast {

struct GraphDelta {
  struct EdgeAdd {
    VertexId u = 0;
    VertexId v = 0;
    Label label = 0;
  };

  // Labels of vertices to append (ids assigned |V_base|, |V_base|+1, ...).
  std::vector<Label> add_vertices;

  // Vertices to drop, in extended numbering. Duplicates are tolerated.
  std::vector<VertexId> remove_vertices;

  std::vector<EdgeAdd> add_edges;
  std::vector<std::pair<VertexId, VertexId>> remove_edges;

  bool Empty() const {
    return add_vertices.empty() && remove_vertices.empty() &&
           add_edges.empty() && remove_edges.empty();
  }

  // e.g. "+3v -1v +5e -2e".
  std::string Summary() const;
};

// Merges base + delta into a fresh CSR graph (see semantics above). The
// base graph is not modified. The result equals what GraphBuilder would
// build from the surviving base edges followed by add_edges. InvalidArgument
// when a delta id is out of range of the extended numbering.
StatusOr<Graph> ApplyDelta(const Graph& base, const GraphDelta& delta);

// Text format for deltas, one op per line ('#' comments allowed):
//   av <label>            add vertex (id = |V_base| + #prior av lines)
//   rv <id>               remove vertex
//   ae <u> <v> [label]    add edge
//   re <u> <v>            remove edge
StatusOr<GraphDelta> ParseDeltaText(const std::string& text);

// Loads a delta from a file in the above format.
StatusOr<GraphDelta> LoadDeltaFile(const std::string& path);

// A random edge-churn delta against `base`: `edge_churn` random edge
// insertions between existing vertices plus `edge_churn` removals of
// existing edges. Keeps |V| fixed and |E| roughly stable, which makes it the
// standard write workload for the update benchmarks (bench_update,
// fast_serve --swap-every-ms). Deterministic given the Rng state.
GraphDelta RandomChurnDelta(const Graph& base, std::size_t edge_churn, Rng& rng);

}  // namespace fast

#endif  // FAST_GRAPH_GRAPH_DELTA_H_
