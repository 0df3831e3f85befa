// GraphDelta / GraphView / update-stream unit tests (docs/streaming.md):
// overlay mutation semantics, the view-vs-compacted equivalence the whole
// incremental machinery rests on, and the batch-apply effect reporting
// that drives the invalidation pass.

#include "graph/graph_delta.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "graph/update_stream.h"

namespace privim {
namespace {

struct Arc {
  NodeId u;
  NodeId v;
  float w;
  bool operator==(const Arc&) const = default;
  bool operator<(const Arc& o) const {
    return std::tie(u, v) < std::tie(o.u, o.v);
  }
};

std::vector<Arc> ArcsOf(const GraphView& view) {
  std::vector<Arc> arcs;
  EXPECT_TRUE(view.ForEachEdge([&arcs](NodeId u, NodeId v, float w) {
                    arcs.push_back({u, v, w});
                  }).ok());
  return arcs;
}

std::vector<Arc> ArcsOf(const Graph& g) { return ArcsOf(GraphView(g)); }

Graph MakeBase() {
  GraphBuilder b(5);
  EXPECT_TRUE(b.AddEdge(0, 1, 0.5f).ok());
  EXPECT_TRUE(b.AddEdge(0, 3, 0.25f).ok());
  EXPECT_TRUE(b.AddEdge(1, 2, 1.0f).ok());
  EXPECT_TRUE(b.AddEdge(2, 0, 0.75f).ok());
  EXPECT_TRUE(b.AddEdge(3, 4, 0.1f).ok());
  return std::move(b.Build()).ValueOrDie();
}

TEST(GraphDeltaTest, AddAndRemoveEdges) {
  Graph base = MakeBase();
  GraphDelta delta(base);
  EXPECT_TRUE(delta.empty());

  ASSERT_TRUE(delta.AddEdge(4, 0, 0.9f).ok());
  EXPECT_TRUE(delta.HasEdge(4, 0));
  EXPECT_EQ(delta.num_edges(), base.num_edges() + 1);
  // Re-adding a visible arc (base or overlay) is AlreadyExists.
  EXPECT_EQ(delta.AddEdge(4, 0).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(delta.AddEdge(0, 1).code(), StatusCode::kAlreadyExists);

  ASSERT_TRUE(delta.RemoveEdge(0, 1).ok());
  EXPECT_FALSE(delta.HasEdge(0, 1));
  EXPECT_EQ(delta.num_edges(), base.num_edges());
  EXPECT_EQ(delta.RemoveEdge(0, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(delta.RemoveEdge(1, 4).code(), StatusCode::kNotFound);

  // Same endpoint validation as GraphBuilder.
  EXPECT_EQ(delta.AddEdge(0, 99).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(delta.AddEdge(2, 2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(delta.AddEdge(1, 0, 1.5f).code(), StatusCode::kInvalidArgument);
}

TEST(GraphDeltaTest, ReAddRemovedBaseArcCarriesNewWeight) {
  Graph base = MakeBase();
  GraphDelta delta(base);
  ASSERT_TRUE(delta.RemoveEdge(0, 1).ok());
  ASSERT_TRUE(delta.AddEdge(0, 1, 0.125f).ok());
  EXPECT_TRUE(delta.HasEdge(0, 1));
  EXPECT_EQ(delta.num_edges(), base.num_edges());

  float seen = -1.0f;
  GraphView view(base, &delta);
  ASSERT_TRUE(view.ForEachOutEdge(0, [&seen](NodeId v, float w) {
                    if (v == 1) seen = w;
                  }).ok());
  EXPECT_FLOAT_EQ(seen, 0.125f);
}

TEST(GraphDeltaTest, NodeOperations) {
  Graph base = MakeBase();
  GraphDelta delta(base);
  Result<NodeId> added = delta.AddNode();
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, base.num_nodes());
  EXPECT_EQ(delta.num_nodes(), base.num_nodes() + 1);
  ASSERT_TRUE(delta.AddEdge(*added, 0, 0.5f).ok());
  ASSERT_TRUE(delta.AddEdge(1, *added, 0.5f).ok());

  // RemoveNode isolates: every incident arc (both directions) disappears,
  // the id stays valid.
  ASSERT_TRUE(delta.RemoveNode(0).ok());
  GraphView view(base, &delta);
  EXPECT_EQ(view.OutDegree(0), 0u);
  EXPECT_EQ(view.InDegree(0), 0u);
  EXPECT_FALSE(view.HasEdge(2, 0));
  EXPECT_FALSE(view.HasEdge(0, 1));
  EXPECT_EQ(view.num_nodes(), base.num_nodes() + 1);
}

TEST(GraphDeltaTest, VersionBumpsOnEveryMutation) {
  Graph base = MakeBase();
  GraphDelta delta(base);
  uint64_t last = delta.version();
  ASSERT_TRUE(delta.AddEdge(4, 0).ok());
  EXPECT_GT(delta.version(), last);
  last = delta.version();
  ASSERT_TRUE(delta.RemoveEdge(4, 0).ok());
  EXPECT_GT(delta.version(), last);
  last = delta.version();
  // Failed mutations do not bump.
  EXPECT_FALSE(delta.RemoveEdge(4, 0).ok());
  EXPECT_EQ(delta.version(), last);

  GraphView view(base, &delta);
  const uint64_t fp = view.IdentityFingerprint();
  ASSERT_TRUE(delta.AddNode().ok());
  EXPECT_NE(view.IdentityFingerprint(), fp);
}

TEST(GraphDeltaTest, ViewMatchesCompactedGraph) {
  // The central equivalence: after an arbitrary mutation mix, the view's
  // edge enumeration (order AND weights) equals the compacted CSR's.
  Rng rng(0xD31);
  Graph base =
      std::move(WattsStrogatz(60, 4, 0.2, rng)).ValueOrDie();
  ASSERT_TRUE(base.EnsureInCsr().ok());
  GraphDelta delta(base);

  Rng mut(0xD32);
  for (int i = 0; i < 200; ++i) {
    NodeId u = static_cast<NodeId>(mut.UniformInt(delta.num_nodes()));
    NodeId v = static_cast<NodeId>(mut.UniformInt(delta.num_nodes()));
    if (u == v) continue;
    if (mut.Bernoulli(0.6)) {
      (void)delta.AddEdge(u, v, static_cast<float>(mut.Uniform()));
    } else {
      (void)delta.RemoveEdge(u, v);
    }
  }
  ASSERT_TRUE(delta.AddNode().ok());
  ASSERT_TRUE(delta.AddEdge(60, 3, 0.5f).ok());
  ASSERT_TRUE(delta.RemoveNode(7).ok());

  Graph compacted = std::move(delta.Compact()).ValueOrDie();
  GraphView view(base, &delta);
  EXPECT_EQ(view.num_nodes(), compacted.num_nodes());
  EXPECT_EQ(view.num_edges(), compacted.num_edges());
  EXPECT_EQ(ArcsOf(view), ArcsOf(compacted));

  // Per-row order + degrees and HasEdge agree everywhere.
  for (NodeId n = 0; n < view.num_nodes(); ++n) {
    EXPECT_EQ(view.OutDegree(n), compacted.OutDegree(n)) << "out " << n;
    EXPECT_EQ(view.InDegree(n), compacted.InDegree(n)) << "in " << n;
    std::vector<NodeId> vi, ci;
    ASSERT_TRUE(
        view.ForEachInEdge(n, [&vi](NodeId u, float) { vi.push_back(u); })
            .ok());
    for (NodeId u : compacted.InNeighbors(n)) ci.push_back(u);
    EXPECT_EQ(vi, ci) << "in-row " << n;
  }

  // Compact() leaves the overlay intact; ResetBase clears it.
  EXPECT_FALSE(delta.empty());
  ASSERT_TRUE(delta.ResetBase(compacted).ok());
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.num_edges(), compacted.num_edges());
  GraphView rebased(compacted, &delta);
  EXPECT_EQ(ArcsOf(rebased), ArcsOf(compacted));
}

// Compact() splices rows; these cases hold it to two oracles. A
// GraphBuilder::AddEdgeStream build of the same view builds the CSR in
// its own way (a counting sort for the out-rows, in-rows derived from
// them) and must equal the splice bit for bit: ids, weights, offset width
// and in_csr_builds(). Both read the view's merge, so a plain std::map of
// arcs, mutated beside the delta, must also equal the compacted arcs.
using ArcMap = std::map<std::pair<NodeId, NodeId>, float>;

Graph OracleBuild(const GraphView& view, const GraphBuildOptions& opts) {
  GraphBuilder b(view.num_nodes());
  EXPECT_TRUE(b.AddEdgeStream([&view](EdgeSink& sink) {
                 return view.ForEachEdge([&sink](NodeId u, NodeId v, float w) {
                   return sink.Add(u, v, w);
                 });
               }).ok());
  return std::move(b.Build(opts)).ValueOrDie();
}

template <typename T>
bool SameBits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

void ExpectSameCsr(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  ASSERT_TRUE(got.has_in_csr());
  EXPECT_EQ(got.in_csr_builds(), want.in_csr_builds());
  // Equal footprints: same arc storage and the same offset width.
  EXPECT_EQ(got.MemoryFootprintBytes(), want.MemoryFootprintBytes());
  for (NodeId u = 0; u < got.num_nodes(); ++u) {
    EXPECT_TRUE(SameBits(got.OutNeighbors(u), want.OutNeighbors(u))) << u;
    EXPECT_TRUE(SameBits(got.OutWeights(u), want.OutWeights(u))) << u;
    EXPECT_TRUE(SameBits(got.InNeighbors(u), want.InNeighbors(u))) << u;
    EXPECT_TRUE(SameBits(got.InWeights(u), want.InWeights(u))) << u;
  }
}

void ExpectArcs(const Graph& g, const ArcMap& model) {
  ArcMap got;
  g.ForEachEdge([&got](NodeId u, NodeId v, float w) { got[{u, v}] = w; });
  EXPECT_EQ(got, model);
}

/// Compacts `delta` with the default and with a zero offset limit (the
/// 64-bit offset path) and holds both to the oracles.
void ExpectCompactMatchesOracles(const GraphDelta& delta,
                                 const ArcMap& model) {
  const GraphView view(delta.base(), &delta);
  std::vector<size_t> footprints;
  for (uint64_t limit : {uint64_t{0xFFFFFFFF}, uint64_t{0}}) {
    GraphBuildOptions opts;
    opts.narrow_offset_limit = limit;
    const Graph got = std::move(delta.Compact(opts)).ValueOrDie();
    ExpectSameCsr(got, OracleBuild(view, opts));
    ExpectArcs(got, model);
    footprints.push_back(got.MemoryFootprintBytes());
  }
  ASSERT_GT(view.num_edges(), 0u);
  EXPECT_GT(footprints[1], footprints[0])
      << "the limit must select the 64-bit offsets";
}

ArcMap ArcMapOf(const Graph& g) {
  ArcMap m;
  g.ForEachEdge([&m](NodeId u, NodeId v, float w) { m[{u, v}] = w; });
  return m;
}

TEST(GraphDeltaCompactTest, EmptyOverlayReproducesTheBase) {
  Rng rng(0xC0);
  Graph base = std::move(WattsStrogatz(50, 4, 0.3, rng)).ValueOrDie();
  ASSERT_TRUE(base.EnsureInCsr().ok());
  const GraphDelta delta(base);
  ExpectCompactMatchesOracles(delta, ArcMapOf(base));
}

TEST(GraphDeltaCompactTest, RandomMutationMixesMatchOracles) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(0xC100 + seed);
    Graph base =
        std::move(ErdosRenyi(70, 0.08, /*directed=*/true, rng)).ValueOrDie();
    ASSERT_TRUE(base.EnsureInCsr().ok());
    GraphDelta delta(base);
    ArcMap model = ArcMapOf(base);
    const std::vector<std::pair<NodeId, NodeId>> base_arcs = [&] {
      std::vector<std::pair<NodeId, NodeId>> v;
      for (const auto& [arc, w] : model) v.push_back(arc);
      return v;
    }();

    Rng mut(0xC200 + seed);
    const int ops = 40 + 60 * static_cast<int>(seed);
    for (int i = 0; i < ops; ++i) {
      const double pick = mut.Uniform();
      const size_t n = delta.num_nodes();
      if (pick < 0.03) {
        ASSERT_TRUE(delta.AddNode().ok());
      } else if (pick < 0.06) {
        const NodeId u = static_cast<NodeId>(mut.UniformInt(n));
        ASSERT_TRUE(delta.RemoveNode(u).ok());
        for (auto it = model.begin(); it != model.end();) {
          it = (it->first.first == u || it->first.second == u)
                   ? model.erase(it)
                   : std::next(it);
        }
      } else if (pick < 0.3) {
        // Re-add a base arc, removing it first when it is still visible:
        // the overlay keeps the base copy masked and carries a new weight.
        const auto [u, v] = base_arcs[mut.UniformInt(base_arcs.size())];
        if (delta.HasEdge(u, v)) ASSERT_TRUE(delta.RemoveEdge(u, v).ok());
        const float w = static_cast<float>(mut.Uniform());
        ASSERT_TRUE(delta.AddEdge(u, v, w).ok());
        model[{u, v}] = w;
      } else {
        const NodeId u = static_cast<NodeId>(mut.UniformInt(n));
        const NodeId v = static_cast<NodeId>(mut.UniformInt(n));
        if (u == v) continue;
        if (mut.Bernoulli(0.55)) {
          const float w = static_cast<float>(mut.Uniform());
          if (delta.AddEdge(u, v, w).ok()) model[{u, v}] = w;
        } else if (delta.RemoveEdge(u, v).ok()) {
          model.erase({u, v});
        }
      }
    }
    ASSERT_FALSE(delta.empty());
    ExpectCompactMatchesOracles(delta, model);
  }
}

TEST(GraphDeltaCompactTest, AddedNodesAndIsolationAtTheEdges) {
  Graph base = MakeBase();
  GraphDelta delta(base);
  ArcMap model = ArcMapOf(base);
  // Rows past the base: one wired in both directions, one left isolated.
  ASSERT_TRUE(delta.AddNode().ok());  // 5
  ASSERT_TRUE(delta.AddNode().ok());  // 6
  ASSERT_TRUE(delta.AddEdge(5, 0, 0.3f).ok());
  ASSERT_TRUE(delta.AddEdge(4, 5, 0.6f).ok());
  model[{5, 0}] = 0.3f;
  model[{4, 5}] = 0.6f;
  // The first and last base rows touched, the middle ones copied as a run.
  ASSERT_TRUE(delta.RemoveNode(0).ok());
  for (auto it = model.begin(); it != model.end();) {
    it = (it->first.first == 0 || it->first.second == 0) ? model.erase(it)
                                                          : std::next(it);
  }
  ExpectCompactMatchesOracles(delta, model);
}

TEST(GraphDeltaTest, ResetBaseRejectsShrunkBase) {
  Graph base = MakeBase();
  GraphDelta delta(base);
  ASSERT_TRUE(delta.AddNode().ok());
  GraphBuilder b(3);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  Graph small = std::move(b.Build()).ValueOrDie();
  EXPECT_FALSE(delta.ResetBase(small).ok());
}

TEST(UpdateStreamTest, ApplyReportsExactEffects) {
  Graph base = MakeBase();
  GraphDelta delta(base);
  UpdateBatch batch;
  batch.events.push_back({UpdateKind::kAddEdge, 4, 0, 0.5f, 0});
  batch.events.push_back({UpdateKind::kAddEdge, 4, 0, 0.5f, 1});  // dup
  batch.events.push_back({UpdateKind::kRemoveEdge, 0, 1, 1.0f, 2});
  batch.events.push_back({UpdateKind::kRemoveEdge, 1, 4, 1.0f, 3});  // miss
  batch.events.push_back({UpdateKind::kAddEdge, 2, 4, 0.25f, 4});

  Result<ApplyEffects> fx = ApplyUpdateBatch(delta, batch);
  ASSERT_TRUE(fx.ok());
  EXPECT_EQ(fx->applied_events, 3u);
  EXPECT_EQ(fx->skipped_events, 2u);
  EXPECT_EQ(fx->changed_arcs, 3u);
  EXPECT_FALSE(fx->node_count_changed);
  EXPECT_EQ(fx->changed_out_rows, (std::vector<NodeId>{0, 2, 4}));
  EXPECT_EQ(fx->changed_in_rows, (std::vector<NodeId>{0, 1, 4}));
  EXPECT_TRUE(std::is_sorted(fx->changed_out_rows.begin(),
                             fx->changed_out_rows.end()));

  // Malformed events fail the whole batch.
  UpdateBatch bad;
  bad.events.push_back({UpdateKind::kAddEdge, 0, 99, 1.0f, 0});
  EXPECT_FALSE(ApplyUpdateBatch(delta, bad).ok());
}

TEST(UpdateStreamTest, SyntheticBatchIsPureFunctionOfInputs) {
  Graph base = MakeBase();
  GraphDelta delta(base);
  GraphView view(base, &delta);
  StreamGenConfig cfg;
  cfg.events_per_batch = 32;

  UpdateBatch a = MakeSyntheticBatch(view, 7, 0x5eed, cfg);
  UpdateBatch b = MakeSyntheticBatch(view, 7, 0x5eed, cfg);
  EXPECT_EQ(a.index, 7u);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.events.size(), 32u);

  UpdateBatch c = MakeSyntheticBatch(view, 8, 0x5eed, cfg);
  EXPECT_NE(a.events, c.events);
}

}  // namespace
}  // namespace privim
