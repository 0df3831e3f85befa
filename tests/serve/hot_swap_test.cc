// Snapshot hot-swap torture: many client threads query while a swapper
// thread flips the published snapshot as fast as it can. The invariants —
// checked for every single response — are the serving layer's correctness
// contract under swap:
//
//   1. Attribution: every response carries the id of exactly one of the
//      published snapshots (no torn or mixed answers).
//   2. Determinism: a response is a pure function of (snapshot, request
//      seed) — it equals the answer a standalone warm QueryEngine computes
//      for that same snapshot, bit for bit.
//
// Runs at 2 and 8 worker threads; tools/run_tsan.sh puts this binary on
// the TSan rung, where the swap path's synchronization is the subject
// under test.

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "im/rr_sets.h"
#include "nn/features.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "serve/server.h"

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

std::shared_ptr<const ModelSnapshot> MakeSnapshot(const Graph& g,
                                                  uint64_t seed) {
  Rng rng(seed);
  auto model = std::make_unique<GnnModel>(SmallConfig(), rng);
  return std::move(ModelSnapshot::FromModel(std::move(model), g))
      .ValueOrDie();
}

/// The request variants clients cycle through; a mix of estimators keeps
/// both the inference and the diffusion caches hot across swaps.
std::vector<QueryRequest> Variants() {
  std::vector<QueryRequest> variants;
  for (uint64_t s = 0; s < 4; ++s) {
    QueryRequest req;
    req.type = QueryType::kTopK;
    req.k = 6;
    req.estimator =
        (s % 2 == 0) ? SpreadEstimator::kExact
                     : SpreadEstimator::kMonteCarloIc;
    req.trials = 4;
    req.max_steps = 1;
    req.seed = s;
    variants.push_back(std::move(req));
  }
  return variants;
}

struct Expected {
  std::vector<NodeId> seeds;
  std::vector<double> values;
  double spread = 0.0;
};

/// `kClients` threads each send `per_client` queries, cycling through
/// `variants`, and check every response against `expected[snapshot id]`.
/// Returns each client's first failure ("" when it had none).
std::vector<std::string> QueryFromClients(
    Server& server, const std::vector<QueryRequest>& variants,
    const std::map<uint64_t, std::vector<Expected>>& expected,
    size_t per_client) {
  constexpr size_t kClients = 4;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryResponse resp;
      for (size_t i = 0; i < per_client; ++i) {
        const size_t v = (c + i) % variants.size();
        const Status s = server.Query(variants[v], resp);
        if (!s.ok()) {
          failures[c] = "query failed: " + s.ToString();
          return;
        }
        const auto it = expected.find(resp.snapshot_id);
        if (it == expected.end()) {
          failures[c] = "response from unknown snapshot id " +
                        std::to_string(resp.snapshot_id);
          return;
        }
        const Expected& want = it->second[v];
        if (resp.seeds != want.seeds || resp.values != want.values ||
            resp.spread != want.spread) {
          failures[c] = "response diverged from snapshot " +
                        std::to_string(resp.snapshot_id) +
                        "'s deterministic answer (variant " +
                        std::to_string(v) + ")";
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return failures;
}

void TortureAt(size_t num_threads) {
  Rng graph_rng(77);
  Graph g = std::move(ErdosRenyi(60, 0.1, true, graph_rng)).ValueOrDie();
  const auto snap_a = MakeSnapshot(g, 101);
  const auto snap_b = MakeSnapshot(g, 202);
  ASSERT_NE(snap_a->id(), snap_b->id());

  // Ground truth per (snapshot, variant), computed on a standalone engine
  // before any concurrency exists.
  const std::vector<QueryRequest> variants = Variants();
  std::map<uint64_t, std::vector<Expected>> expected;
  {
    QueryEngine engine;
    for (const auto& snap : {snap_a, snap_b}) {
      std::vector<Expected>& per_variant = expected[snap->id()];
      for (const QueryRequest& req : variants) {
        QueryResponse resp;
        ASSERT_TRUE(
            engine.Execute(g, snap.get(), nullptr, req, resp).ok());
        per_variant.push_back(
            Expected{resp.seeds, resp.values, resp.spread});
      }
    }
  }

  ServeConfig cfg;
  cfg.num_threads = num_threads;
  cfg.queue_capacity = 256;
  Server server(g, cfg);
  ASSERT_TRUE(server.SwapSnapshot(snap_a).ok());
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop_swapping{false};
  std::atomic<size_t> swaps{0};
  std::thread swapper([&] {
    bool use_a = false;
    while (!stop_swapping.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(server.SwapSnapshot(use_a ? snap_a : snap_b).ok());
      swaps.fetch_add(1, std::memory_order_relaxed);
      use_a = !use_a;
    }
  });

  const std::vector<std::string> failures =
      QueryFromClients(server, variants, expected, /*per_client=*/50);
  stop_swapping.store(true);
  swapper.join();
  server.Stop();

  for (size_t c = 0; c < failures.size(); ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": "
                                     << failures[c];
  }
  EXPECT_GT(swaps.load(), 0u);
}

TEST(HotSwapTortureTest, TwoWorkers) { TortureAt(2); }

TEST(HotSwapTortureTest, EightWorkers) { TortureAt(8); }

/// A cycle of graphs on one node set, each a few edits from the last:
/// arcs added and removed, and one base arc re-added with weight 1 (a
/// weight-only in-row change that flips most of its draws). Other weights
/// stay low so RR sets stay local and each swap repairs only part of the
/// sketch.
std::vector<std::shared_ptr<const Graph>> GraphCycle(const Graph& base,
                                                     size_t count) {
  GraphDelta delta(base);
  Rng mut(92);
  std::vector<std::shared_ptr<const Graph>> graphs;
  for (size_t i = 0; i < count; ++i) {
    for (int e = 0; e < 6; ++e) {
      const NodeId u = static_cast<NodeId>(mut.UniformInt(base.num_nodes()));
      const NodeId v = static_cast<NodeId>(mut.UniformInt(base.num_nodes()));
      if (u == v) continue;
      if (!delta.RemoveEdge(u, v).ok()) {
        EXPECT_TRUE(delta.AddEdge(u, v, 0.2f).ok());
      }
    }
    for (NodeId u = static_cast<NodeId>(i); u < base.num_nodes(); ++u) {
      if (base.OutDegree(u) == 0) continue;
      const NodeId v = base.OutNeighbors(u)[0];
      if (delta.HasEdge(u, v)) EXPECT_TRUE(delta.RemoveEdge(u, v).ok());
      EXPECT_TRUE(delta.AddEdge(u, v, 1.0f).ok());
      break;
    }
    graphs.push_back(
        std::make_shared<const Graph>(std::move(delta.Compact()).ValueOrDie()));
  }
  return graphs;
}

/// SwapGraphAndSnapshot under load: a swapper walks the graph cycle while
/// clients send top-k queries scored by the resident sketch. Each answer
/// must equal an engine run on the graph, the snapshot and a FRESHLY
/// generated sketch that its snapshot id names — so every sketch the
/// swaps repair, including those queried in flight, equals a fresh build.
void SketchSwapTortureAt(size_t num_threads) {
  constexpr size_t kSets = 128;
  Rng graph_rng(91);
  const Graph unit =
      std::move(ErdosRenyi(60, 0.08, true, graph_rng)).ValueOrDie();
  Graph base = std::move(WithUniformWeights(unit, 0.2f)).ValueOrDie();
  ASSERT_TRUE(base.EnsureInCsr().ok());
  const std::vector<std::shared_ptr<const Graph>> graphs =
      GraphCycle(base, 4);

  ServeConfig cfg;
  cfg.num_threads = num_threads;
  cfg.queue_capacity = 256;
  cfg.rr_sketch_sets = kSets;
  cfg.rr_sketch_seed = 0x5ce7;
  std::vector<QueryRequest> variants;
  for (size_t k : {3, 6}) {
    QueryRequest req;
    req.type = QueryType::kTopK;
    req.k = k;
    req.estimator = SpreadEstimator::kRrSketch;
    variants.push_back(req);
  }
  std::vector<std::shared_ptr<const ModelSnapshot>> snaps;
  std::map<uint64_t, std::vector<Expected>> expected;
  {
    QueryEngine engine;
    for (size_t i = 0; i < graphs.size(); ++i) {
      Rng model_rng(300 + i);
      auto model = std::make_unique<GnnModel>(SmallConfig(), model_rng);
      snaps.push_back(
          std::move(ModelSnapshot::FromModel(std::move(model), graphs[i]))
              .ValueOrDie());
      Rng sketch_rng(cfg.rr_sketch_seed);
      const RrSketch fresh = std::move(RrSketch::Generate(
                                           *graphs[i], kSets, sketch_rng))
                                 .ValueOrDie();
      for (const QueryRequest& req : variants) {
        QueryResponse resp;
        ASSERT_TRUE(engine.Execute(*graphs[i], snaps[i].get(), &fresh, req,
                                   resp)
                        .ok());
        expected[snaps[i]->id()].push_back(
            Expected{resp.seeds, resp.values, resp.spread});
      }
    }
  }

  Server server(base, cfg);
  ASSERT_TRUE(server.SwapGraphAndSnapshot(snaps[0]).ok());
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop_swapping{false};
  std::atomic<size_t> swaps{0};
  std::string swap_failure;
  std::thread swapper([&] {
    for (size_t i = 1; !stop_swapping.load(std::memory_order_relaxed); ++i) {
      const Status s = server.SwapGraphAndSnapshot(snaps[i % snaps.size()]);
      if (!s.ok()) {
        swap_failure = s.ToString();
        return;
      }
      swaps.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const std::vector<std::string> failures =
      QueryFromClients(server, variants, expected, /*per_client=*/40);
  stop_swapping.store(true);
  swapper.join();
  server.Stop();

  EXPECT_TRUE(swap_failure.empty()) << swap_failure;
  for (size_t c = 0; c < failures.size(); ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": "
                                     << failures[c];
  }
  EXPECT_GT(swaps.load(), 0u);
}

TEST(HotSwapTortureTest, SketchRepairedAcrossGraphSwapsTwoWorkers) {
  SketchSwapTortureAt(2);
}

TEST(HotSwapTortureTest, SketchRepairedAcrossGraphSwapsFourWorkers) {
  SketchSwapTortureAt(4);
}

// The first sketch queries of a freshly published graph, sent by 8
// clients at once to 8 workers: they share one derivation (the others
// wait for it) and all answer from that one sketch, a fresh Generate.
TEST(HotSwapTortureTest, ConcurrentFirstSketchReadersShareOneDerivation) {
  constexpr size_t kReaders = 8;
  constexpr size_t kSets = 128;
  Rng graph_rng(93);
  const Graph unit =
      std::move(ErdosRenyi(60, 0.08, true, graph_rng)).ValueOrDie();
  Graph base = std::move(WithUniformWeights(unit, 0.2f)).ValueOrDie();
  ASSERT_TRUE(base.EnsureInCsr().ok());
  const std::shared_ptr<const Graph> published = GraphCycle(base, 1)[0];

  MetricsRegistry metrics;
  ServeConfig cfg;
  cfg.num_threads = kReaders;
  cfg.max_batch = 1;
  cfg.rr_sketch_sets = kSets;
  cfg.metrics = &metrics;
  Server server(base, cfg);
  Rng model_rng(301);
  ASSERT_TRUE(server
                  .SwapGraphAndSnapshot(
                      std::move(ModelSnapshot::FromModel(
                                    std::make_unique<GnnModel>(SmallConfig(),
                                                               model_rng),
                                    published))
                          .ValueOrDie())
                  .ok());
  ASSERT_TRUE(server.Start().ok());

  QueryRequest req;
  req.type = QueryType::kSpread;
  req.seeds = {0, 7, 21};
  req.estimator = SpreadEstimator::kRrSketch;
  std::vector<QueryResponse> responses(kReaders);
  std::vector<Status> statuses(kReaders);
  std::latch start(kReaders);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kReaders; ++c) {
    clients.emplace_back([&, c] {
      start.arrive_and_wait();
      statuses[c] = server.Query(req, responses[c]);
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(metrics.GetCounter("serve.sketch.derivations")->value(), 1u);
  // Nothing was derived before, so the one derivation generated.
  EXPECT_EQ(metrics.GetCounter("serve.sketch.sets_rebuilt")->value(), kSets);
  Rng sketch_rng(cfg.rr_sketch_seed);
  const RrSketch fresh =
      std::move(RrSketch::Generate(*published, kSets, sketch_rng))
          .ValueOrDie();
  const double want = fresh.EstimateSpread(req.seeds);
  for (size_t c = 0; c < kReaders; ++c) {
    ASSERT_TRUE(statuses[c].ok()) << statuses[c].ToString();
    EXPECT_EQ(responses[c].spread, want) << "client " << c;
  }
}

// Publish releases the state it retires after its lock: a retired graph's
// destructor, run by the swap that drops the last reference, must not
// stall a reader of the current state. The deleter asks a second thread
// for CurrentGraph() and waits for it at most 2 s.
TEST(HotSwapTortureTest, RetiredStateIsFreedOutsideThePublicationLock) {
  Rng graph_rng(94);
  Graph g = std::move(ErdosRenyi(30, 0.15, true, graph_rng)).ValueOrDie();
  ASSERT_TRUE(g.EnsureInCsr().ok());
  const auto owning_snapshot = [](std::shared_ptr<const Graph> graph) {
    Rng rng(7);
    return std::move(ModelSnapshot::FromModel(
                         std::make_unique<GnnModel>(SmallConfig(), rng),
                         std::move(graph)))
        .ValueOrDie();
  };
  // Declared before the server, which must not outlive them.
  bool probe = false;
  bool freed = false;
  bool timed_out = false;
  std::thread reader;
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(g, cfg);
  {
    std::shared_ptr<const Graph> probed(new Graph(g), [&](const Graph* dead) {
      if (probe) {
        std::promise<void> read;
        std::future<void> done = read.get_future();
        reader = std::thread([&server, read = std::move(read)]() mutable {
          server.CurrentGraph();
          read.set_value();
        });
        timed_out = done.wait_for(std::chrono::seconds(2)) ==
                    std::future_status::timeout;
        freed = true;
      }
      delete dead;
    });
    ASSERT_TRUE(
        server.SwapGraphAndSnapshot(owning_snapshot(std::move(probed))).ok());
  }
  // The server now holds the probed graph's last reference; this swap
  // retires it.
  probe = true;
  const Status swapped = server.SwapGraphAndSnapshot(
      owning_snapshot(std::make_shared<const Graph>(g)));
  probe = false;
  if (reader.joinable()) reader.join();
  ASSERT_TRUE(swapped.ok()) << swapped.ToString();
  ASSERT_TRUE(freed) << "the swap did not free the retired graph";
  EXPECT_FALSE(timed_out)
      << "CurrentGraph() waited on a swap freeing the retired state";
}

TEST(HotSwapTortureTest, InFlightQueriesKeepOldSnapshotAlive) {
  // Structural variant of the refcount contract: after a swap, the old
  // snapshot object survives as long as someone holds it (here: the test,
  // standing in for an in-flight query) and its answers stay valid.
  Rng graph_rng(5);
  Graph g = std::move(ErdosRenyi(30, 0.15, true, graph_rng)).ValueOrDie();
  auto snap_a = MakeSnapshot(g, 1);
  const uint64_t id_a = snap_a->id();
  std::weak_ptr<const ModelSnapshot> weak_a = snap_a;

  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(g, cfg);
  ASSERT_TRUE(server.SwapSnapshot(snap_a).ok());

  // A reader takes a reference (as a worker batch would)...
  std::shared_ptr<const ModelSnapshot> in_flight = server.CurrentSnapshot();
  // ...then the snapshot is replaced and the builder's handle dropped.
  ASSERT_TRUE(server.SwapSnapshot(MakeSnapshot(g, 2)).ok());
  snap_a.reset();

  EXPECT_FALSE(weak_a.expired());  // The in-flight reference keeps it.
  EXPECT_EQ(in_flight->id(), id_a);
  EXPECT_NE(server.CurrentSnapshot()->id(), id_a);

  in_flight.reset();
  EXPECT_TRUE(weak_a.expired());  // Last reference released it.
}

}  // namespace
}  // namespace privim
