// Tests for batched graph updates (src/graph/graph_delta.h): ApplyDelta
// semantics (append, compaction, removal-wins, relabel idiom), the merge
// checked against a GraphBuilder rebuild on random deltas, and the delta
// text format.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "graph/graph_delta.h"
#include "graph/graph_io.h"
#include "ldbc/ldbc.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace fast {
namespace {

using testing::PaperDataGraph;

// The reference ApplyDelta: pushes the surviving base edges, then add_edges,
// through GraphBuilder, whose first-seen dedup gives the documented
// semantics. The merge in graph_delta.cc must produce the same graph.
StatusOr<Graph> RebuildApplyDelta(const Graph& base, const GraphDelta& delta) {
  const std::size_t n_base = base.NumVertices();
  const std::size_t n_ext = n_base + delta.add_vertices.size();
  const auto edge_key = [](VertexId u, VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  };

  std::vector<char> removed(n_ext, 0);
  for (VertexId v : delta.remove_vertices) {
    if (v >= n_ext) {
      return Status::InvalidArgument("remove_vertices: id " + std::to_string(v) +
                                     " out of range (extended |V| = " +
                                     std::to_string(n_ext) + ")");
    }
    removed[v] = 1;
  }
  std::unordered_set<std::uint64_t> removed_edges;
  for (const auto& [u, v] : delta.remove_edges) {
    if (u >= n_ext || v >= n_ext) {
      return Status::InvalidArgument("remove_edges: endpoint out of range");
    }
    removed_edges.insert(edge_key(u, v));
  }

  std::vector<VertexId> new_id(n_ext, kInvalidVertex);
  GraphBuilder builder(n_ext);
  for (std::size_t v = 0; v < n_ext; ++v) {
    if (removed[v]) continue;
    const Label l = v < n_base ? base.label(static_cast<VertexId>(v))
                               : delta.add_vertices[v - n_base];
    new_id[v] = builder.AddVertex(l);
  }
  for (VertexId u = 0; u < n_base; ++u) {
    if (removed[u]) continue;
    const auto nbrs = base.neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId w = nbrs[i];
      if (u >= w || removed[w] || removed_edges.count(edge_key(u, w))) continue;
      FAST_RETURN_IF_ERROR(builder.AddEdge(new_id[u], new_id[w], base.EdgeLabelAt(u, i)));
    }
  }
  for (const GraphDelta::EdgeAdd& e : delta.add_edges) {
    if (e.u >= n_ext || e.v >= n_ext) {
      return Status::InvalidArgument("add_edges: endpoint out of range");
    }
    if (removed[e.u] || removed[e.v]) continue;
    FAST_RETURN_IF_ERROR(builder.AddEdge(new_id[e.u], new_id[e.v], e.label));
  }
  return builder.Build();
}

// Empty when every accessor of `got` matches `want`, else the first mismatch.
std::string GraphDiff(const Graph& got, const Graph& want) {
  if (got.NumVertices() != want.NumVertices()) return "NumVertices";
  if (got.NumEdges() != want.NumEdges()) return "NumEdges";
  if (got.has_edge_labels() != want.has_edge_labels()) return "has_edge_labels";
  if (got.MaxDegree() != want.MaxDegree()) return "MaxDegree";
  if (got.NumLabels() != want.NumLabels()) return "NumLabels";
  if (got.HubThreshold() != want.HubThreshold()) return "HubThreshold";
  if (got.NumHubs() != want.NumHubs()) return "NumHubs";
  if (got.MemoryBytes() != want.MemoryBytes()) return "MemoryBytes";
  for (Label l = 0; l < want.NumLabels(); ++l) {
    const auto a = got.VerticesWithLabel(l);
    const auto b = want.VerticesWithLabel(l);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
      return "VerticesWithLabel(" + std::to_string(l) + ")";
    }
  }
  for (VertexId v = 0; v < want.NumVertices(); ++v) {
    const std::string at = "(" + std::to_string(v) + ")";
    if (got.label(v) != want.label(v)) return "label" + at;
    const auto a = got.neighbors(v);
    const auto b = want.neighbors(v);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
      return "neighbors" + at;
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (got.EdgeLabelAt(v, i) != want.EdgeLabelAt(v, i)) return "EdgeLabelAt" + at;
    }
    const auto ha = got.HubAdjacencyBitmap(v);
    const auto hb = want.HubAdjacencyBitmap(v);
    if (!std::equal(ha.begin(), ha.end(), hb.begin(), hb.end())) {
      return "HubAdjacencyBitmap" + at;
    }
  }
  return "";
}

// A random delta mixing every case the semantics name: vertex adds and
// (duplicate) removes, existing and absent edge removals, the remove-then-
// re-add relabel idiom, duplicate adds in both orientations with different
// labels, self-loops, edges at hubs and at added or removed vertices, and
// now and then one out-of-range id.
GraphDelta RandomDelta(const Graph& base, Rng& rng) {
  GraphDelta d;
  const std::size_t n_base = base.NumVertices();
  const auto label = [&rng] {
    return rng.Bernoulli(0.6) ? Label{0} : static_cast<Label>(1 + rng.Uniform(3));
  };
  for (std::size_t i = rng.Uniform(4); i > 0; --i) {
    d.add_vertices.push_back(static_cast<Label>(rng.Uniform(base.NumLabels() + 2)));
  }
  const std::size_t n_ext = n_base + d.add_vertices.size();
  const auto any_vertex = [&] { return static_cast<VertexId>(rng.Uniform(n_ext)); };
  // A hub endpoint now and then, so hub rows gain and lose bits.
  const auto endpoint = [&] {
    if (base.NumHubs() > 0 && rng.Bernoulli(0.2)) {
      for (int attempt = 0; attempt < 16; ++attempt) {
        const auto v = static_cast<VertexId>(rng.Uniform(n_base));
        if (!base.HubAdjacencyBitmap(v).empty()) return v;
      }
    }
    return any_vertex();
  };
  const auto base_edge = [&]() -> std::pair<VertexId, VertexId> {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const auto u = static_cast<VertexId>(rng.Uniform(n_base));
      if (base.degree(u) == 0) continue;
      return {u, base.neighbors(u)[rng.Uniform(base.degree(u))]};
    }
    return {any_vertex(), any_vertex()};
  };

  for (std::size_t i = rng.Uniform(3); i > 0; --i) {
    d.remove_vertices.push_back(any_vertex());
    if (rng.Bernoulli(0.2)) d.remove_vertices.push_back(d.remove_vertices.back());
  }
  for (std::size_t i = rng.Uniform(12); i > 0; --i) {
    switch (rng.Uniform(4)) {
      case 0:  // an existing edge, either orientation
      case 1: {
        auto [u, v] = base_edge();
        if (rng.Bernoulli(0.5)) std::swap(u, v);
        d.remove_edges.emplace_back(u, v);
        if (rng.Bernoulli(0.3)) d.add_edges.push_back({v, u, label()});  // relabel
        break;
      }
      case 2:  // most likely absent
        d.remove_edges.emplace_back(endpoint(), any_vertex());
        break;
      default: {  // self-loop
        const VertexId u = any_vertex();
        d.remove_edges.emplace_back(u, u);
      }
    }
  }
  for (std::size_t i = rng.Uniform(24); i > 0; --i) {
    switch (rng.Uniform(5)) {
      case 0: {  // re-add an existing edge: the base label must win
        const auto [u, v] = base_edge();
        d.add_edges.push_back({u, v, label()});
        break;
      }
      case 1: {  // duplicate add, reversed, with its own label
        const VertexId u = endpoint();
        const VertexId v = any_vertex();
        d.add_edges.push_back({u, v, label()});
        d.add_edges.push_back({v, u, label()});
        break;
      }
      case 2: {  // self-loop
        const VertexId u = any_vertex();
        d.add_edges.push_back({u, u, label()});
        break;
      }
      default:
        d.add_edges.push_back({endpoint(), any_vertex(), label()});
    }
  }
  if (rng.Bernoulli(0.03)) {
    const auto bad = static_cast<VertexId>(n_ext + rng.Uniform(3));
    switch (rng.Uniform(3)) {
      case 0:
        d.remove_vertices.push_back(bad);
        break;
      case 1:
        d.remove_edges.emplace_back(any_vertex(), bad);
        break;
      default:
        d.add_edges.push_back({bad, any_vertex(), 0});
    }
  }
  // Shuffle so the relabel idiom's removal and re-add sit anywhere.
  rng.Shuffle(&d.add_edges);
  return d;
}

// Applies `deltas` random deltas in chains of 8 from `start` (each delta
// applies to the previous result), comparing the merge with the rebuild.
void ExpectMergeMatchesRebuild(const Graph& start, int deltas, std::uint64_t seed,
                               int* failures_seen) {
  Rng rng(seed);
  Graph base = start;
  for (int i = 0; i < deltas; ++i) {
    if (i % 8 == 0) base = start;
    const GraphDelta delta = RandomDelta(base, rng);
    auto got = ApplyDelta(base, delta);
    auto want = RebuildApplyDelta(base, delta);
    ASSERT_EQ(got.ok(), want.ok()) << "delta " << i << ": " << delta.Summary();
    if (!want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code());
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      ++*failures_seen;
      continue;
    }
    ASSERT_EQ(GraphDiff(*got, *want), "") << "delta " << i << ": " << delta.Summary();
    base = std::move(want).value();
  }
}

// A small labelled graph: 0:A-1:B-2:C path plus 0-2 closing the triangle.
Graph TriangleGraph() {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(2);
  FAST_CHECK_OK(b.AddEdge(0, 1));
  FAST_CHECK_OK(b.AddEdge(1, 2));
  FAST_CHECK_OK(b.AddEdge(0, 2));
  auto g = std::move(b).Build();
  FAST_CHECK(g.ok());
  return std::move(g).value();
}

TEST(GraphDeltaTest, EmptyDeltaReproducesGraph) {
  const Graph base = PaperDataGraph();
  auto next = ApplyDelta(base, GraphDelta{});
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->NumVertices(), base.NumVertices());
  EXPECT_EQ(next->NumEdges(), base.NumEdges());
  EXPECT_EQ(GraphToText(*next), GraphToText(base));
}

TEST(GraphDeltaTest, AddVerticesAppendDenseIds) {
  const Graph base = TriangleGraph();
  GraphDelta delta;
  delta.add_vertices = {7, 9};
  delta.add_edges = {{3, 4, 0}, {0, 3, 0}};  // new ids are 3 and 4
  auto next = ApplyDelta(base, delta);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->NumVertices(), 5u);
  EXPECT_EQ(next->label(3), 7u);
  EXPECT_EQ(next->label(4), 9u);
  EXPECT_TRUE(next->HasEdge(3, 4));
  EXPECT_TRUE(next->HasEdge(0, 3));
  EXPECT_EQ(next->NumEdges(), base.NumEdges() + 2);
}

TEST(GraphDeltaTest, RemoveEdgeIsOrderInsensitiveAndIdempotent) {
  const Graph base = TriangleGraph();
  GraphDelta delta;
  delta.remove_edges = {{2, 1}, {1, 2}};  // reversed + duplicate: one edge
  auto next = ApplyDelta(base, delta);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->NumEdges(), 2u);
  EXPECT_FALSE(next->HasEdge(1, 2));
  EXPECT_TRUE(next->HasEdge(0, 1));
  EXPECT_TRUE(next->HasEdge(0, 2));
  // Removing an absent edge is a no-op.
  GraphDelta absent;
  absent.remove_edges = {{0, 1}};
  auto again = ApplyDelta(*next, absent);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->NumEdges(), 1u);
}

TEST(GraphDeltaTest, RemoveVertexCompactsIdsAndDropsIncidentEdges) {
  const Graph base = PaperDataGraph();
  GraphDelta delta;
  delta.remove_vertices = {0};  // v1 in paper numbering: label A, degree 2
  auto next = ApplyDelta(base, delta);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->NumVertices(), base.NumVertices() - 1);
  EXPECT_EQ(next->NumEdges(), base.NumEdges() - base.degree(0));
  // Every surviving vertex shifts down by one; labels follow.
  for (VertexId v = 0; v < next->NumVertices(); ++v) {
    EXPECT_EQ(next->label(v), base.label(v + 1));
  }
  // Edge (2,6)->(1,5) in base numbering survives as (1,5) shifted.
  EXPECT_TRUE(base.HasEdge(1, 5));
  EXPECT_TRUE(next->HasEdge(0, 4));
}

TEST(GraphDeltaTest, RemovalWinsOverAddInSameDelta) {
  const Graph base = TriangleGraph();
  GraphDelta delta;
  delta.add_vertices = {4};
  delta.add_edges = {{2, 3, 0}};  // edge to a vertex removed below
  delta.remove_vertices = {3};
  auto next = ApplyDelta(base, delta);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->NumVertices(), 3u);
  EXPECT_EQ(next->NumEdges(), 3u);
}

TEST(GraphDeltaTest, RemoveThenAddRelabelsEdge) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  FAST_CHECK_OK(b.AddEdge(0, 1, 5));
  const Graph base = std::move(b).Build().value();

  // Re-adding without removing keeps the base label (first label wins).
  GraphDelta readd;
  readd.add_edges = {{0, 1, 9}};
  auto kept = ApplyDelta(base, readd);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->EdgeLabelBetween(0, 1), 5u);

  // The documented relabel idiom: remove + add in one delta.
  GraphDelta relabel;
  relabel.remove_edges = {{0, 1}};
  relabel.add_edges = {{0, 1, 9}};
  auto changed = ApplyDelta(base, relabel);
  ASSERT_TRUE(changed.ok());
  EXPECT_EQ(changed->EdgeLabelBetween(0, 1), 9u);
  EXPECT_EQ(changed->NumEdges(), 1u);
}

TEST(GraphDeltaOracleTest, MergeMatchesRebuildOnLdbcWithHubs) {
  LdbcConfig config;
  config.scale_factor = 0.1;
  auto g = GenerateLdbcGraph(config);
  ASSERT_TRUE(g.ok()) << g.status();
  ASSERT_GT(g->NumHubs(), 0u);
  ASSERT_FALSE(g->has_edge_labels());
  int failures = 0;
  ExpectMergeMatchesRebuild(*g, 1200, 0xDE17A, &failures);
  EXPECT_GT(failures, 0);  // the out-of-range cases were drawn
}

TEST(GraphDeltaOracleTest, MergeMatchesRebuildOnEdgeLabelledGraph) {
  Rng rng(0x1ABE1);
  GraphBuilder b;
  for (int v = 0; v < 300; ++v) b.AddVertex(static_cast<Label>(rng.Uniform(4)));
  for (int e = 0; e < 1500; ++e) {
    FAST_CHECK_OK(b.AddEdge(static_cast<VertexId>(rng.Uniform(300)),
                            static_cast<VertexId>(rng.Uniform(300)),
                            static_cast<Label>(rng.Uniform(3))));
  }
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(g->has_edge_labels());
  int failures = 0;
  ExpectMergeMatchesRebuild(*g, 1200, 0x0E1AB, &failures);
  EXPECT_GT(failures, 0);
}

TEST(GraphDeltaTest, LabelledDuplicateAddMarksGraphLabelled) {
  // An unlabelled base edge wins the dedup against a labelled re-add, yet
  // the result keeps an (all-zero) label array, as GraphBuilder does for
  // any labelled AddEdge.
  const Graph base = TriangleGraph();
  GraphDelta delta;
  delta.add_edges = {{0, 1, 7}};
  auto next = ApplyDelta(base, delta);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next->has_edge_labels());
  EXPECT_EQ(next->EdgeLabelBetween(0, 1), 0u);
  EXPECT_EQ(next->NumEdges(), base.NumEdges());
  EXPECT_EQ(GraphDiff(*next, RebuildApplyDelta(base, delta).value()), "");

  // Once no non-zero label is left, the next delta drops the array.
  auto plain = ApplyDelta(*next, GraphDelta{});
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->has_edge_labels());
}

TEST(GraphDeltaTest, OutOfRangeIdsRejected) {
  const Graph base = TriangleGraph();
  GraphDelta bad_rv;
  bad_rv.remove_vertices = {3};
  EXPECT_EQ(ApplyDelta(base, bad_rv).status().code(), StatusCode::kInvalidArgument);

  GraphDelta bad_ae;
  bad_ae.add_edges = {{0, 3, 0}};
  EXPECT_EQ(ApplyDelta(base, bad_ae).status().code(), StatusCode::kInvalidArgument);

  GraphDelta bad_re;
  bad_re.remove_edges = {{0, 3}};
  EXPECT_EQ(ApplyDelta(base, bad_re).status().code(), StatusCode::kInvalidArgument);

  // The extended numbering makes ids of added vertices addressable.
  GraphDelta ok_ext;
  ok_ext.add_vertices = {1};
  ok_ext.add_edges = {{0, 3, 0}};
  EXPECT_TRUE(ApplyDelta(base, ok_ext).ok());
}

TEST(GraphDeltaTest, ParseDeltaTextRoundTrip) {
  auto delta = ParseDeltaText(
      "# add two vertices, rewire\n"
      "av 7\n"
      "av 9\n"
      "ae 3 4\n"
      "ae 0 3 2\n"
      "re 1 2\n"
      "rv 1\n");
  ASSERT_TRUE(delta.ok()) << delta.status();
  EXPECT_EQ(delta->add_vertices, (std::vector<Label>{7, 9}));
  ASSERT_EQ(delta->add_edges.size(), 2u);
  EXPECT_EQ(delta->add_edges[1].label, 2u);
  EXPECT_EQ(delta->remove_edges, (std::vector<std::pair<VertexId, VertexId>>{{1, 2}}));
  EXPECT_EQ(delta->remove_vertices, (std::vector<VertexId>{1}));
  EXPECT_EQ(delta->Summary(), "+2v -1v +2e -1e");

  const Graph base = TriangleGraph();
  auto next = ApplyDelta(base, *delta);
  ASSERT_TRUE(next.ok());
  // 3 base + 2 added - 1 removed.
  EXPECT_EQ(next->NumVertices(), 4u);
}

TEST(GraphDeltaTest, ParseDeltaTextRejectsMalformedLines) {
  EXPECT_EQ(ParseDeltaText("av\n").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDeltaText("ae 1\n").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDeltaText("xx 1 2\n").status().code(), StatusCode::kInvalidArgument);
  // Error messages carry the line number.
  auto bad = ParseDeltaText("av 1\nre 0\n");
  EXPECT_NE(bad.status().ToString().find("line 2"), std::string::npos);
}

TEST(GraphDeltaTest, ParseDeltaTextRejectsTrailingText) {
  // "1O" (typo'd 10) must not silently parse as label 1.
  EXPECT_EQ(ParseDeltaText("ae 4 5 1O\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDeltaText("ae 4 5 xyz\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDeltaText("av 1 2\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDeltaText("rv 1 junk\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDeltaText("re 0 1 2\n").status().code(),
            StatusCode::kInvalidArgument);
  // The optional ae label still parses when well-formed.
  auto ok = ParseDeltaText("ae 4 5 10\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->add_edges[0].label, 10u);
}

TEST(GraphDeltaTest, ParseDeltaTextRejects64BitValues) {
  // 2^32 would truncate to vertex 0 if cast blindly — must be a hard error.
  EXPECT_EQ(ParseDeltaText("rv 4294967296\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDeltaText("ae 0 4294967296\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDeltaText("av 4294967296\n").status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fast
