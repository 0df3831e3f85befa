#include "graph/algorithms.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace privim {
namespace {

// Path 0 -> 1 -> 2 -> 3 plus a shortcut 0 -> 2.
Graph MakePathWithShortcut() {
  GraphBuilder b(4);
  EXPECT_TRUE(b.AddEdge(0, 1).ok());
  EXPECT_TRUE(b.AddEdge(1, 2).ok());
  EXPECT_TRUE(b.AddEdge(2, 3).ok());
  EXPECT_TRUE(b.AddEdge(0, 2).ok());
  return std::move(b.Build()).ValueOrDie();
}

TEST(RHopTest, RespectsRadius) {
  Graph g = MakePathWithShortcut();
  EXPECT_EQ(RHopNeighborhood(g, 0, 0), std::vector<NodeId>{0});
  auto r1 = RHopNeighborhood(g, 0, 1);
  std::sort(r1.begin(), r1.end());
  EXPECT_EQ(r1, (std::vector<NodeId>{0, 1, 2}));
  auto r2 = RHopNeighborhood(g, 0, 2);
  std::sort(r2.begin(), r2.end());
  EXPECT_EQ(r2, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(RHopTest, DirectednessMatters) {
  Graph g = MakePathWithShortcut();
  // Node 3 has no out-edges: its ball is itself.
  EXPECT_EQ(RHopNeighborhood(g, 3, 5), std::vector<NodeId>{3});
}

TEST(BfsDistancesTest, ShortestHopCounts) {
  Graph g = MakePathWithShortcut();
  const std::vector<int> dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], 1);  // Shortcut beats the 2-hop path.
  EXPECT_EQ(dist[3], 2);
}

TEST(BfsDistancesTest, UnreachableIsMinusOne) {
  GraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  Graph g = std::move(b.Build()).ValueOrDie();
  const std::vector<int> dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[2], -1);
}

TEST(ComponentsTest, CountsWeakComponents) {
  GraphBuilder b(6);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(2, 1).ok());  // Weakly connects 2 to {0,1}.
  ASSERT_TRUE(b.AddEdge(3, 4).ok());
  Graph g = std::move(b.Build()).ValueOrDie();
  const ComponentLabels cl = WeaklyConnectedComponents(g);
  EXPECT_EQ(cl.num_components, 3u);  // {0,1,2}, {3,4}, {5}.
  EXPECT_EQ(cl.label[0], cl.label[1]);
  EXPECT_EQ(cl.label[1], cl.label[2]);
  EXPECT_EQ(cl.label[3], cl.label[4]);
  EXPECT_NE(cl.label[0], cl.label[3]);
  EXPECT_NE(cl.label[0], cl.label[5]);
}

TEST(ThetaProjectionTest, BoundsInDegree) {
  // Star: many sources into node 0.
  const size_t n = 30;
  GraphBuilder b(n);
  for (NodeId u = 1; u < n; ++u) ASSERT_TRUE(b.AddEdge(u, 0).ok());
  Graph g = std::move(b.Build()).ValueOrDie();
  Rng rng(5);
  Graph bounded = std::move(ThetaBoundedProjection(g, 10, rng)).ValueOrDie();
  EXPECT_EQ(bounded.InDegree(0), 10u);
  EXPECT_EQ(bounded.num_nodes(), n);
}

TEST(ThetaProjectionTest, LeavesLowDegreeNodesAlone) {
  GraphBuilder b(4);
  ASSERT_TRUE(b.AddEdge(0, 1, 0.5f).ok());
  ASSERT_TRUE(b.AddEdge(2, 3, 0.25f).ok());
  Graph g = std::move(b.Build()).ValueOrDie();
  Rng rng(5);
  Graph bounded = std::move(ThetaBoundedProjection(g, 10, rng)).ValueOrDie();
  EXPECT_EQ(bounded.num_edges(), 2u);
  // Weights preserved.
  EXPECT_FLOAT_EQ(bounded.OutWeights(0)[0], 0.5f);
}

TEST(ThetaProjectionTest, KeptEdgesAreSubsetOfOriginal) {
  Rng gen_rng(9);
  GraphBuilder b(40);
  for (int i = 0; i < 300; ++i) {
    const NodeId u = static_cast<NodeId>(gen_rng.UniformInt(40));
    const NodeId v = static_cast<NodeId>(gen_rng.UniformInt(40));
    if (u != v) ASSERT_TRUE(b.AddEdge(u, v).ok());
  }
  Graph g = std::move(b.Build()).ValueOrDie();
  Rng rng(11);
  Graph bounded = std::move(ThetaBoundedProjection(g, 3, rng)).ValueOrDie();
  for (const Edge& e : bounded.Edges()) {
    EXPECT_TRUE(g.HasEdge(e.src, e.dst));
  }
  for (NodeId v = 0; v < bounded.num_nodes(); ++v) {
    EXPECT_LE(bounded.InDegree(v), 3u);
  }
}

TEST(ThetaProjectionTest, RejectsZeroTheta) {
  GraphBuilder b(2);
  Graph g = std::move(b.Build()).ValueOrDie();
  Rng rng(1);
  EXPECT_FALSE(ThetaBoundedProjection(g, 0, rng).ok());
}

TEST(TransitivityTest, CompleteGraphIsOne) {
  GraphBuilder b(5);
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = 0; v < 5; ++v) {
      if (u != v) ASSERT_TRUE(b.AddEdge(u, v).ok());
    }
  }
  Graph g = std::move(b.Build()).ValueOrDie();
  Rng rng(3);
  // All wedges u->v->w with u != w are closed in a complete digraph.
  EXPECT_NEAR(TransitivityEstimate(g, rng), 1.0, 1e-9);
}

TEST(TransitivityTest, PathHasNoTriangles) {
  Graph g = MakePathWithShortcut();
  Rng rng(3);
  // Wedge 0->1->2 is closed by shortcut 0->2; wedges via node 2 are open.
  const double t = TransitivityEstimate(g, rng);
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 1.0);
}

// ChangedInRows: the in-row diff the serving layer repairs its RR sketch
// from, so it must name every row whose ids OR weights moved, and no other.
Graph BuildArcs(size_t n, const std::vector<Edge>& arcs,
                bool in_csr = true) {
  GraphBuilder b(n);
  for (const Edge& e : arcs) EXPECT_TRUE(b.AddEdge(e.src, e.dst, e.weight).ok());
  GraphBuildOptions opts;
  opts.build_in_csr = in_csr;
  return std::move(b.Build(opts)).ValueOrDie();
}

const std::vector<Edge> kDiffArcs = {
    {0, 1, 0.5f}, {1, 2, 0.25f}, {2, 3, 1.0f}, {3, 0, 0.75f}, {0, 2, 0.1f}};

std::vector<NodeId> Diff(const Graph& a, const Graph& b) {
  return std::move(ChangedInRows(a, b)).ValueOrDie();
}

TEST(ChangedInRowsTest, EqualGraphsDifferNowhere) {
  const Graph a = BuildArcs(5, kDiffArcs);
  const Graph b = BuildArcs(5, kDiffArcs);
  EXPECT_TRUE(Diff(a, b).empty());
  EXPECT_TRUE(Diff(a, a).empty());
}

TEST(ChangedInRowsTest, AddedAndRemovedArcsMarkTheirHeads) {
  std::vector<Edge> arcs = kDiffArcs;
  arcs.push_back({4, 1, 0.5f});  // Into node 1.
  arcs.erase(arcs.begin() + 2);  // 2 -> 3 gone: node 3's in-row.
  const Graph a = BuildArcs(5, kDiffArcs);
  const Graph b = BuildArcs(5, arcs);
  EXPECT_EQ(Diff(a, b), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(Diff(b, a), (std::vector<NodeId>{1, 3}));
}

TEST(ChangedInRowsTest, WeightOnlyChangeIsAChange) {
  std::vector<Edge> arcs = kDiffArcs;
  arcs[4].weight = 0.2f;  // 0 -> 2 keeps its endpoints, not its weight.
  const Graph a = BuildArcs(5, kDiffArcs);
  const Graph b = BuildArcs(5, arcs);
  EXPECT_EQ(Diff(a, b), (std::vector<NodeId>{2}));
  // Bit for bit: -0 and +0 compare equal as floats but differ as bits.
  std::vector<Edge> zero = kDiffArcs, neg_zero = kDiffArcs;
  zero[0].weight = 0.0f;
  neg_zero[0].weight = -0.0f;
  EXPECT_EQ(Diff(BuildArcs(5, zero), BuildArcs(5, neg_zero)),
            (std::vector<NodeId>{1}));
}

TEST(ChangedInRowsTest, SameIdsInAnotherRowOrderDoNotHide) {
  // Node 3's in-row {2} becomes {1}: same length, different source.
  std::vector<Edge> arcs = kDiffArcs;
  arcs[2] = {1, 3, 1.0f};
  EXPECT_EQ(Diff(BuildArcs(5, kDiffArcs), BuildArcs(5, arcs)),
            (std::vector<NodeId>{3}));
}

TEST(ChangedInRowsTest, ArcFreeGraphs) {
  EXPECT_TRUE(Diff(BuildArcs(3, {}), BuildArcs(3, {})).empty());
  EXPECT_EQ(Diff(BuildArcs(3, {}), BuildArcs(3, {{0, 2, 0.5f}})),
            (std::vector<NodeId>{2}));
}

TEST(ChangedInRowsTest, RejectsMismatchedGraphs) {
  const Graph a = BuildArcs(5, kDiffArcs);
  Result<std::vector<NodeId>> sizes = ChangedInRows(a, BuildArcs(6, kDiffArcs));
  ASSERT_FALSE(sizes.ok());
  EXPECT_EQ(sizes.status().code(), StatusCode::kInvalidArgument);
  Result<std::vector<NodeId>> no_in =
      ChangedInRows(a, BuildArcs(5, kDiffArcs, /*in_csr=*/false));
  ASSERT_FALSE(no_in.ok());
  EXPECT_EQ(no_in.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace privim
