// Edge-labelled subgraph matching (the Sec. II-A extension: "our techniques
// can be readily extended to edge-labeled and directed graphs").

#include <gtest/gtest.h>

#include "baseline/baseline.h"
#include "core/driver.h"
#include "test_util.h"
#include "util/rng.h"

namespace fast {
namespace {

using testing::BruteForceCount;

// Small data graph with labelled relations:
//   friend(0) and enemy(1) edges among Person(0) vertices;
//   likes(2) edges from Person to Item(1) vertices.
Graph RelationGraph() {
  GraphBuilder b;
  for (int i = 0; i < 6; ++i) b.AddVertex(0);  // persons 0..5
  for (int i = 0; i < 3; ++i) b.AddVertex(1);  // items 6..8
  auto e = [&](VertexId u, VertexId v, Label l) {
    EXPECT_TRUE(b.AddEdge(u, v, l).ok());
  };
  e(0, 1, 0);  // friends
  e(1, 2, 0);
  e(2, 0, 0);  // friend triangle 0-1-2
  e(3, 4, 0);
  e(4, 5, 1);  // enemy!
  e(5, 3, 0);  // 3-4-5 is NOT a friend triangle
  e(0, 6, 2);
  e(1, 6, 2);  // both 0 and 1 like item 6
  e(2, 7, 2);
  e(4, 8, 2);
  return std::move(b).Build().value();
}

QueryGraph FriendTriangle() {
  GraphBuilder b;
  for (int i = 0; i < 3; ++i) b.AddVertex(0);
  EXPECT_TRUE(b.AddEdge(0, 1, 0).ok());
  EXPECT_TRUE(b.AddEdge(1, 2, 0).ok());
  EXPECT_TRUE(b.AddEdge(2, 0, 0).ok());
  return QueryGraph::Create(std::move(b).Build().value(), "friend-triangle").value();
}

QueryGraph CoLikedItem() {
  // Two friends liking the same item.
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddVertex(1);
  EXPECT_TRUE(b.AddEdge(0, 1, 0).ok());  // friend
  EXPECT_TRUE(b.AddEdge(0, 2, 2).ok());  // likes
  EXPECT_TRUE(b.AddEdge(1, 2, 2).ok());  // likes
  return QueryGraph::Create(std::move(b).Build().value(), "co-liked").value();
}

TEST(EdgeLabelGraphTest, LabelsStoredAndQueried) {
  Graph g = RelationGraph();
  EXPECT_TRUE(g.has_edge_labels());
  EXPECT_EQ(g.EdgeLabelBetween(4, 5), 1u);
  EXPECT_EQ(g.EdgeLabelBetween(5, 4), 1u);  // symmetric
  EXPECT_EQ(g.EdgeLabelBetween(0, 1), 0u);
  EXPECT_EQ(g.EdgeLabelBetween(0, 6), 2u);
  EXPECT_EQ(g.EdgeLabelBetween(0, 5), 0u);  // absent edge
  EXPECT_TRUE(g.HasEdgeWithLabel(4, 5, 1));
  EXPECT_FALSE(g.HasEdgeWithLabel(4, 5, 0));
  EXPECT_FALSE(g.HasEdgeWithLabel(0, 5, 0));  // absent edge
}

TEST(EdgeLabelGraphTest, UnlabelledGraphStoresNoLabels) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(0);
  EXPECT_TRUE(b.AddEdge(0, 1).ok());
  Graph g = std::move(b).Build().value();
  EXPECT_FALSE(g.has_edge_labels());
  EXPECT_EQ(g.EdgeLabelBetween(0, 1), 0u);
}

TEST(EdgeLabelGraphTest, DuplicateEdgeKeepsFirstLabel) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(0);
  EXPECT_TRUE(b.AddEdge(0, 1, 5).ok());
  EXPECT_TRUE(b.AddEdge(0, 1, 9).ok());
  Graph g = std::move(b).Build().value();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.EdgeLabelBetween(0, 1), 5u);
  EXPECT_EQ(g.EdgeLabelBetween(1, 0), 5u);
}

TEST(EdgeLabelGraphTest, EdgeLabelAtAlignedWithNeighbors) {
  Graph g = RelationGraph();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(g.EdgeLabelAt(v, i), g.EdgeLabelBetween(v, nbrs[i]));
    }
  }
}

TEST(EdgeLabelGraphTest, MemoryBytesCountsEdgeLabels) {
  // The unlabelled twin: same vertices and edges, every edge label 0.
  const Graph labelled = RelationGraph();
  GraphBuilder b;
  for (VertexId v = 0; v < labelled.NumVertices(); ++v) b.AddVertex(labelled.label(v));
  for (VertexId v = 0; v < labelled.NumVertices(); ++v) {
    for (VertexId w : labelled.neighbors(v)) {
      if (v < w) EXPECT_TRUE(b.AddEdge(v, w).ok());
    }
  }
  const Graph plain = std::move(b).Build().value();
  ASSERT_FALSE(plain.has_edge_labels());
  ASSERT_EQ(plain.NumEdges(), labelled.NumEdges());
  EXPECT_EQ(labelled.MemoryBytes() - plain.MemoryBytes(),
            2 * labelled.NumEdges() * sizeof(Label));
}

TEST(EdgeLabelMatchTest, FriendTriangleExcludesEnemyTriangle) {
  Graph g = RelationGraph();
  QueryGraph q = FriendTriangle();
  // Only 0-1-2 matches (3-4-5 has one enemy edge): 6 automorphic embeddings.
  EXPECT_EQ(BruteForceCount(q, g), 6u);
  auto r = RunFast(q, g).value();
  EXPECT_EQ(r.embeddings, 6u);
}

TEST(EdgeLabelMatchTest, MixedLabelPattern) {
  Graph g = RelationGraph();
  QueryGraph q = CoLikedItem();
  // Persons 0,1 both like item 6 and are friends: embeddings (0,1,6),(1,0,6).
  EXPECT_EQ(BruteForceCount(q, g), 2u);
  auto r = RunFast(q, g).value();
  EXPECT_EQ(r.embeddings, 2u);
}

TEST(EdgeLabelMatchTest, LabelMismatchYieldsNoResults) {
  Graph g = RelationGraph();
  // Triangle of enemies: no such triangle exists.
  GraphBuilder b;
  for (int i = 0; i < 3; ++i) b.AddVertex(0);
  ASSERT_TRUE(b.AddEdge(0, 1, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, 1).ok());
  ASSERT_TRUE(b.AddEdge(2, 0, 1).ok());
  QueryGraph q = QueryGraph::Create(std::move(b).Build().value()).value();
  EXPECT_EQ(RunFast(q, g).value().embeddings, 0u);
}

TEST(EdgeLabelMatchTest, BaselinesHonorEdgeLabels) {
  Graph g = RelationGraph();
  for (const QueryGraph& q : {FriendTriangle(), CoLikedItem()}) {
    const std::uint64_t truth = BruteForceCount(q, g);
    for (BaselineKind kind : {BaselineKind::kCfl, BaselineKind::kDaf,
                              BaselineKind::kCeci, BaselineKind::kGpsm,
                              BaselineKind::kGsi}) {
      auto r = MakeBaseline(kind)->Run(q, g, BaselineOptions{});
      ASSERT_TRUE(r.ok()) << MakeBaseline(kind)->name();
      EXPECT_EQ(r->embeddings, truth)
          << MakeBaseline(kind)->name() << " on " << q.name();
    }
  }
}

// Property sweep: random edge-labelled graphs, all engines agree.
class EdgeLabelPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EdgeLabelPropertyTest, EnginesAgreeOnRandomLabelledGraphs) {
  Rng rng(GetParam());
  GraphBuilder b;
  const std::size_t n = 60;
  for (std::size_t i = 0; i < n; ++i) b.AddVertex(static_cast<Label>(rng.Uniform(3)));
  for (std::size_t i = 0; i < 4 * n; ++i) {
    ASSERT_TRUE(b.AddEdge(static_cast<VertexId>(rng.Uniform(n)),
                          static_cast<VertexId>(rng.Uniform(n)),
                          static_cast<Label>(rng.Uniform(2)))
                    .ok());
  }
  Graph g = std::move(b).Build().value();

  // Random connected labelled triangle query.
  GraphBuilder qb;
  for (int i = 0; i < 3; ++i) qb.AddVertex(static_cast<Label>(rng.Uniform(3)));
  ASSERT_TRUE(qb.AddEdge(0, 1, static_cast<Label>(rng.Uniform(2))).ok());
  ASSERT_TRUE(qb.AddEdge(1, 2, static_cast<Label>(rng.Uniform(2))).ok());
  ASSERT_TRUE(qb.AddEdge(2, 0, static_cast<Label>(rng.Uniform(2))).ok());
  QueryGraph q = QueryGraph::Create(std::move(qb).Build().value()).value();

  const std::uint64_t truth = BruteForceCount(q, g);
  EXPECT_EQ(RunFast(q, g).value().embeddings, truth);
  auto ceci = MakeBaseline(BaselineKind::kCeci)->Run(q, g, BaselineOptions{});
  ASSERT_TRUE(ceci.ok());
  EXPECT_EQ(ceci->embeddings, truth);
  auto cfl = MakeBaseline(BaselineKind::kCfl)->Run(q, g, BaselineOptions{});
  ASSERT_TRUE(cfl.ok());
  EXPECT_EQ(cfl->embeddings, truth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdgeLabelPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace fast
