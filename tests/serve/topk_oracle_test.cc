// Independent oracle for top-k serving. The engine answers from the
// snapshot's stored ranking (ModelSnapshot::ranking), so comparing one
// served answer with another only compares that ranking with itself. This
// suite recomputes every answer the slow way instead — a forward of
// logits_plan() in a fresh PlanArena, then a brute-force sort of every
// (logit, id) pair by logit descending, id ascending, NaN logits last —
// and requires the served answers to match it bit for bit.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "im/diffusion.h"
#include "nn/features.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "tensor/plan.h"

namespace privim {
namespace {

GnnConfig SmallConfig() {
  GnnConfig cfg;
  cfg.type = GnnType::kGrat;
  cfg.in_dim = kNodeFeatureDim;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  return cfg;
}

Graph TestGraph() {
  Rng rng(7);
  return std::move(ErdosRenyi(40, 0.15, true, rng)).ValueOrDie();
}

std::shared_ptr<const ModelSnapshot> MakeSnapshot(const Graph& g,
                                                  uint64_t seed,
                                                  bool zero_params = false) {
  Rng rng(seed);
  auto model = std::make_unique<GnnModel>(SmallConfig(), rng);
  if (zero_params) {
    const std::vector<float> zeros(model->params().num_scalars(), 0.0f);
    model->params().LoadParams(zeros);
  }
  return std::move(ModelSnapshot::FromModel(std::move(model), g))
      .ValueOrDie();
}

QueryRequest TopK(size_t k, std::vector<NodeId> candidates = {}) {
  QueryRequest req;
  req.type = QueryType::kTopK;
  req.k = k;
  req.candidates = std::move(candidates);
  req.estimator = SpreadEstimator::kExact;
  req.max_steps = 1;
  return req;
}

QueryResponse Oracle(const Graph& g, const ModelSnapshot& snap,
                     const QueryRequest& req) {
  PlanArena arena;
  snap.logits_plan().Forward(snap.flat_params(), snap.features(), arena);
  const std::span<const float> logits = snap.logits_plan().Output(arena);
  std::vector<NodeId> ids = req.candidates;
  if (ids.empty()) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) ids.push_back(u);
  }
  std::sort(ids.begin(), ids.end());
  // Numbers by (logit desc, id asc), then every NaN by id asc.
  std::vector<std::pair<float, NodeId>> ranked;
  std::vector<std::pair<float, NodeId>> nans;
  for (NodeId u : ids) {
    (std::isnan(logits[u]) ? nans : ranked).emplace_back(logits[u], u);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  ranked.insert(ranked.end(), nans.begin(), nans.end());
  QueryResponse out;
  out.snapshot_id = snap.id();
  for (size_t i = 0; i < std::min(req.k, ranked.size()); ++i) {
    out.seeds.push_back(ranked[i].second);
    out.values.push_back(static_cast<double>(ranked[i].first));
  }
  out.spread = static_cast<double>(
      ExactUnitWeightSpread(g, out.seeds, req.max_steps));
  return out;
}

void ExpectSame(const QueryResponse& got, const QueryResponse& want) {
  EXPECT_EQ(got.snapshot_id, want.snapshot_id);
  EXPECT_EQ(got.seeds, want.seeds);
  // Bit for bit, so NaN values compare too.
  ASSERT_EQ(got.values.size(), want.values.size());
  EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                        got.values.size() * sizeof(double)),
            0);
  EXPECT_EQ(got.spread, want.spread);
}

TEST(TopKOracleTest, EveryKMatchesBruteForce) {
  const Graph g = TestGraph();
  const auto snap = MakeSnapshot(g, 11);
  const size_t n = g.num_nodes();
  QueryEngine engine;
  for (size_t k : {size_t{1}, size_t{7}, n, n + 5}) {
    const QueryRequest req = TopK(k);
    QueryResponse resp;
    ASSERT_TRUE(engine.Execute(g, snap.get(), nullptr, req, resp).ok());
    EXPECT_EQ(resp.seeds.size(), std::min(k, n)) << "k=" << k;
    ExpectSame(resp, Oracle(g, *snap, req));
  }
}

TEST(TopKOracleTest, UnsortedCandidatesMatchBruteForce) {
  const Graph g = TestGraph();
  const auto snap = MakeSnapshot(g, 12);
  const std::vector<NodeId> candidates = {31, 3, 17, 0, 22, 39, 9, 12, 25};
  QueryEngine engine;
  for (size_t k : {size_t{1}, size_t{4}, candidates.size(), size_t{50}}) {
    const QueryRequest req = TopK(k, candidates);
    QueryResponse resp;
    ASSERT_TRUE(engine.Execute(g, snap.get(), nullptr, req, resp).ok());
    EXPECT_EQ(resp.seeds.size(), std::min(k, candidates.size()));
    ExpectSame(resp, Oracle(g, *snap, req));
  }
}

TEST(TopKOracleTest, AllZeroParamsTieByAscendingId) {
  const Graph g = TestGraph();
  const auto snap = MakeSnapshot(g, 13, /*zero_params=*/true);
  QueryEngine engine;
  QueryResponse resp;
  ASSERT_TRUE(engine.Execute(g, snap.get(), nullptr, TopK(7), resp).ok());
  ExpectSame(resp, Oracle(g, *snap, TopK(7)));
  EXPECT_EQ(resp.seeds, (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6}));

  const QueryRequest restricted = TopK(4, {30, 8, 21, 2, 15});
  ASSERT_TRUE(engine.Execute(g, snap.get(), nullptr, restricted, resp).ok());
  ExpectSame(resp, Oracle(g, *snap, restricted));
  EXPECT_EQ(resp.seeds, (std::vector<NodeId>{2, 8, 15, 21}));
}

TEST(TopKOracleTest, NanLogitsRankAfterEveryNumber) {
  // head.W[1] = +inf and head.b = -inf: nodes whose last hidden column 1
  // is positive get inf + -inf = NaN, the rest -inf. With this seed both
  // kinds occur, so the NaN nodes must follow every -inf node.
  const Graph g = TestGraph();
  Rng rng(3);
  auto model = std::make_unique<GnnModel>(SmallConfig(), rng);
  ParamStore& params = model->params();
  std::vector<float> flat(params.num_scalars());
  params.FlattenParams(flat);
  for (size_t t = 0; t < params.num_tensors(); ++t) {
    const size_t offset = params.OffsetOf(params.params()[t]);
    if (params.names()[t] == "head.W") {
      flat[offset + 1] = std::numeric_limits<float>::infinity();
    } else if (params.names()[t] == "head.b") {
      flat[offset] = -std::numeric_limits<float>::infinity();
    }
  }
  params.LoadParams(flat);
  const auto snap = std::move(ModelSnapshot::FromModel(std::move(model), g))
                        .ValueOrDie();
  const std::vector<float>& logits = snap->ranking().logits;
  const size_t nans = static_cast<size_t>(
      std::count_if(logits.begin(), logits.end(),
                    [](float l) { return std::isnan(l); }));
  ASSERT_GT(nans, 0u);
  ASSERT_LT(nans, g.num_nodes());

  QueryEngine engine;
  for (const QueryRequest& req :
       {TopK(g.num_nodes()), TopK(6, {39, 4, 21, 0, 33, 17, 8, 26, 12})}) {
    QueryResponse resp;
    ASSERT_TRUE(engine.Execute(g, snap.get(), nullptr, req, resp).ok());
    ExpectSame(resp, Oracle(g, *snap, req));
  }
}

TEST(TopKOracleTest, RankingIsAPermutationWithItsInverse) {
  const Graph g = TestGraph();
  const auto snap = MakeSnapshot(g, 14);
  const SeedRanking& r = snap->ranking();
  ASSERT_EQ(r.logits.size(), g.num_nodes());
  ASSERT_EQ(r.order.size(), g.num_nodes());
  ASSERT_EQ(r.position.size(), g.num_nodes());
  for (uint32_t i = 0; i < r.order.size(); ++i) {
    EXPECT_EQ(r.position[r.order[i]], i);
  }
  EXPECT_EQ(&snap->ranking(), &r);  // Stored, not recomputed.
}

TEST(TopKOracleTest, ConcurrentFirstQueriesShareOneRanking) {
  const Graph g = TestGraph();
  const auto snap = MakeSnapshot(g, 15);
  const QueryRequest req = TopK(7);
  constexpr size_t kThreads = 8;
  std::vector<QueryResponse> resps(kThreads);
  std::vector<Status> statuses(kThreads);
  std::atomic<size_t> waiting{kThreads};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryEngine engine;
      // Every thread reaches the fresh snapshot's first top-k together.
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      statuses[t] = engine.Execute(g, snap.get(), nullptr, req, resps[t]);
    });
  }
  for (std::thread& th : threads) th.join();
  const QueryResponse want = Oracle(g, *snap, req);
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t].ToString();
    ExpectSame(resps[t], want);
  }
}

TEST(TopKOracleTest, ConcurrentFirstAccessorsShareOneInferenceBuild) {
  // A snapshot derives its inference state on first use. Eight threads
  // make their first call on a fresh snapshot at once, each through one
  // of features(), logits_plan() and ranking(); all must see one build
  // (the same storage), and that build must equal an independent
  // derivation: BuildNodeFeatures, the model's own parameters, and the
  // oracle's ranking.
  const Graph g = TestGraph();
  const auto snap = MakeSnapshot(g, 16);
  struct Seen {
    const float* features = nullptr;
    const GnnPlan* plan = nullptr;
    const float* params = nullptr;
    const uint32_t* order = nullptr;
  };
  constexpr size_t kThreads = 8;
  std::vector<Seen> seen(kThreads);
  std::atomic<size_t> waiting{kThreads};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      Seen& mine = seen[t];
      switch (t % 3) {
        case 0:
          mine.features = snap->features().data();
          break;
        case 1:
          mine.plan = &snap->logits_plan();
          break;
        default:
          mine.order = snap->ranking().order.data();
          break;
      }
      mine.features = snap->features().data();
      mine.plan = &snap->logits_plan();
      mine.params = snap->flat_params().data();
      mine.order = snap->ranking().order.data();
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t].features, seen[0].features) << t;
    EXPECT_EQ(seen[t].plan, seen[0].plan) << t;
    EXPECT_EQ(seen[t].params, seen[0].params) << t;
    EXPECT_EQ(seen[t].order, seen[0].order) << t;
  }

  const Matrix features = BuildNodeFeatures(g);
  ASSERT_EQ(snap->features().rows(), features.rows());
  ASSERT_EQ(snap->features().cols(), features.cols());
  EXPECT_EQ(std::memcmp(snap->features().data(), features.data(),
                        features.rows() * features.cols() * sizeof(float)),
            0);
  Rng rng(16);
  GnnModel twin(SmallConfig(), rng);
  std::vector<float> params(twin.params().num_scalars());
  twin.params().FlattenParams(params);
  ASSERT_EQ(snap->flat_params().size(), params.size());
  EXPECT_EQ(std::memcmp(snap->flat_params().data(), params.data(),
                        params.size() * sizeof(float)),
            0);
  const SeedRanking& r = snap->ranking();
  EXPECT_EQ(std::vector<NodeId>(r.order.begin(), r.order.end()),
            Oracle(g, *snap, TopK(g.num_nodes())).seeds);
}

}  // namespace
}  // namespace privim
