#include "serve/server.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "nn/features.h"
#include "nn/serialization.h"
#include "obs/metrics.h"
#include "serve/harness.h"

namespace privim {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

GnnConfig SmallConfig() {
  GnnConfig cfg;
  cfg.type = GnnType::kGrat;
  cfg.in_dim = kNodeFeatureDim;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  return cfg;
}

Graph TestGraph(uint64_t seed = 7) {
  Rng rng(seed);
  return std::move(ErdosRenyi(40, 0.15, true, rng)).ValueOrDie();
}

std::shared_ptr<const ModelSnapshot> TestSnapshot(const Graph& g,
                                                  uint64_t seed) {
  Rng rng(seed);
  auto model = std::make_unique<GnnModel>(SmallConfig(), rng);
  return std::move(ModelSnapshot::FromModel(std::move(model), g))
      .ValueOrDie();
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : graph_(TestGraph()) {}

  Graph graph_;
};

TEST_F(ServerTest, AnswersEachQueryType) {
  ServeConfig cfg;
  cfg.num_threads = 2;
  cfg.rr_sketch_sets = 64;
  Server server(graph_, cfg);
  ASSERT_TRUE(server.SwapSnapshot(TestSnapshot(graph_, 1)).ok());
  ASSERT_TRUE(server.Start().ok());

  QueryResponse resp;
  {
    QueryRequest req;
    req.type = QueryType::kTopK;
    req.k = 5;
    ASSERT_TRUE(server.Query(req, resp).ok());
    EXPECT_EQ(resp.seeds.size(), 5u);
    EXPECT_EQ(resp.values.size(), 5u);
    EXPECT_GT(resp.snapshot_id, 0u);
    EXPECT_GE(resp.spread, 5.0);  // Seeds themselves are activated.
  }
  {
    QueryRequest req;
    req.type = QueryType::kSpread;
    req.seeds = {0, 1, 2};
    req.estimator = SpreadEstimator::kMonteCarloIc;
    req.trials = 8;
    ASSERT_TRUE(server.Query(req, resp).ok());
    EXPECT_GE(resp.spread, 3.0);
  }
  {
    QueryRequest req;
    req.type = QueryType::kMarginalGain;
    req.seeds = {0, 1};
    req.candidates = {2, 3, 4};
    req.estimator = SpreadEstimator::kRrSketch;
    ASSERT_TRUE(server.Query(req, resp).ok());
    EXPECT_EQ(resp.values.size(), 3u);
    for (double gain : resp.values) EXPECT_GE(gain, 0.0);
  }
  server.Stop();
}

TEST_F(ServerTest, ResponsesAreDeterministicPerSnapshotAndSeed) {
  QueryRequest req;
  req.type = QueryType::kTopK;
  req.k = 8;
  req.estimator = SpreadEstimator::kMonteCarloIc;
  req.trials = 16;
  req.seed = 123;

  QueryResponse a;
  QueryResponse b;
  // Same snapshot contents (same model seed), different servers and
  // thread counts: responses must be identical.
  for (size_t threads : {1u, 4u}) {
    ServeConfig cfg;
    cfg.num_threads = threads;
    Server server(graph_, cfg);
    ASSERT_TRUE(server.SwapSnapshot(TestSnapshot(graph_, 9)).ok());
    ASSERT_TRUE(server.Start().ok());
    QueryResponse& out = (threads == 1u) ? a : b;
    ASSERT_TRUE(server.Query(req, out).ok());
    // Ask twice on the same server too: caches must not leak into
    // answers.
    QueryResponse again;
    ASSERT_TRUE(server.Query(req, again).ok());
    EXPECT_EQ(out.seeds, again.seeds);
    EXPECT_EQ(out.values, again.values);
    EXPECT_EQ(out.spread, again.spread);
    server.Stop();
  }
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.spread, b.spread);
}

TEST_F(ServerTest, TopKWithoutSnapshotFailsWithHint) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  ASSERT_TRUE(server.Start().ok());
  QueryRequest req;
  req.type = QueryType::kTopK;
  QueryResponse resp;
  const Status s = server.Query(req, resp);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("LoadSnapshot"), std::string::npos);
}

TEST_F(ServerTest, SketchEstimatorWithoutSketchFailsWithHint) {
  ServeConfig cfg;
  cfg.num_threads = 1;  // rr_sketch_sets left 0: no resident sketch.
  Server server(graph_, cfg);
  ASSERT_TRUE(server.Start().ok());
  QueryRequest req;
  req.type = QueryType::kSpread;
  req.seeds = {0};
  req.estimator = SpreadEstimator::kRrSketch;
  QueryResponse resp;
  const Status s = server.Query(req, resp);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("rr_sketch_sets"), std::string::npos);
}

TEST_F(ServerTest, ServerWithoutSketchNeverDerivesOne) {
  MetricsRegistry metrics;
  ServeConfig cfg;
  cfg.num_threads = 1;  // rr_sketch_sets left 0.
  cfg.metrics = &metrics;
  Server server(graph_, cfg);
  auto owned = std::make_shared<const Graph>(TestGraph(8));
  Rng rng(3);
  ASSERT_TRUE(server
                  .SwapGraphAndSnapshot(
                      std::move(ModelSnapshot::FromModel(
                                    std::make_unique<GnnModel>(SmallConfig(),
                                                               rng),
                                    owned))
                          .ValueOrDie())
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  QueryRequest req;
  req.type = QueryType::kSpread;
  req.seeds = {0};
  req.estimator = SpreadEstimator::kRrSketch;
  QueryResponse resp;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(server.Query(req, resp).code(),
              StatusCode::kFailedPrecondition);
  }
  const Result<std::shared_ptr<const RrSketch>> sketch =
      server.CurrentSketch();
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch.ValueOrDie(), nullptr);
  server.Stop();
  EXPECT_EQ(metrics.GetCounter("serve.sketch.derivations")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("serve.sketch.sets_rebuilt")->value(), 0u);
}

// A graph built without its in-CSR still serves: the sketch is derived on
// the first sketch query, which fails with a status naming the fix, while
// exact and Monte-Carlo queries (out-edge scans) answer.
TEST_F(ServerTest, GraphWithoutInCsrServesAndSketchQueriesFailWithHint) {
  GraphBuilder builder(graph_.num_nodes());
  for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
    for (NodeId v : graph_.OutNeighbors(u)) {
      ASSERT_TRUE(builder.AddEdge(u, v).ok());
    }
  }
  GraphBuildOptions opts;
  opts.build_in_csr = false;
  const Graph out_only = std::move(builder.Build(opts)).ValueOrDie();
  ASSERT_FALSE(out_only.has_in_csr());

  ServeConfig cfg;
  cfg.num_threads = 1;
  cfg.rr_sketch_sets = 32;
  Server server(out_only, cfg);
  ASSERT_TRUE(server.Start().ok());

  QueryRequest req;
  req.type = QueryType::kSpread;
  req.seeds = {0, 1};
  req.estimator = SpreadEstimator::kRrSketch;
  QueryResponse resp;
  const Status s = server.Query(req, resp);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("EnsureInCsr"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(resp.type, QueryType::kSpread);
  EXPECT_EQ(resp.spread, 0.0);
  const Result<std::shared_ptr<const RrSketch>> sketch =
      server.CurrentSketch();
  EXPECT_EQ(sketch.status().code(), StatusCode::kFailedPrecondition);

  req.estimator = SpreadEstimator::kExact;
  ASSERT_TRUE(server.Query(req, resp).ok());
  EXPECT_GE(resp.spread, 2.0);
  req.estimator = SpreadEstimator::kMonteCarloIc;
  req.trials = 8;
  req.max_steps = -1;
  ASSERT_TRUE(server.Query(req, resp).ok());
  EXPECT_GE(resp.spread, 2.0);
  server.Stop();
}

TEST_F(ServerTest, InvalidRequestsAreRejectedNotExecuted) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  ASSERT_TRUE(server.Start().ok());
  QueryResponse resp;
  {
    QueryRequest req;
    req.type = QueryType::kSpread;
    req.seeds = {static_cast<NodeId>(graph_.num_nodes())};  // Out of range.
    EXPECT_EQ(server.Query(req, resp).code(),
              StatusCode::kInvalidArgument);
  }
  {
    QueryRequest req;
    req.type = QueryType::kSpread;
    req.seeds = {0};
    req.estimator = SpreadEstimator::kMonteCarloIc;
    req.trials = 0;
    EXPECT_EQ(server.Query(req, resp).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(ServerTest, TopKRejectsRepeatedCandidates) {
  // Regression: {5, 5, 5, 9} with k = 3 once answered 9 5 5 — the same
  // seed twice.
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  ASSERT_TRUE(server.SwapSnapshot(TestSnapshot(graph_, 1)).ok());
  ASSERT_TRUE(server.Start().ok());
  QueryRequest req;
  req.type = QueryType::kTopK;
  req.k = 3;
  req.candidates = {5, 5, 5, 9};
  QueryResponse resp;
  const Status s = server.Query(req, resp);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("repeats node 5"), std::string::npos)
      << s.ToString();
  EXPECT_TRUE(resp.seeds.empty());
  EXPECT_EQ(resp.snapshot_id, 0u);

  // Distinct candidates still answer, and the rejection left no state
  // behind that changes them.
  req.candidates = {5, 9, 2};
  ASSERT_TRUE(server.Query(req, resp).ok());
  EXPECT_EQ(resp.seeds.size(), 3u);
  server.Stop();
}

TEST_F(ServerTest, NanLogitsRankByAscendingId) {
  // One NaN parameter turns every logit NaN. NaN ties like any other tie:
  // by ascending node id.
  Rng rng(3);
  auto model = std::make_unique<GnnModel>(SmallConfig(), rng);
  std::vector<float> flat(model->params().num_scalars());
  model->params().FlattenParams(flat);
  flat[0] = std::numeric_limits<float>::quiet_NaN();
  model->params().LoadParams(flat);
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  ASSERT_TRUE(server
                  .SwapSnapshot(std::move(ModelSnapshot::FromModel(
                                              std::move(model), graph_))
                                    .ValueOrDie())
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  QueryRequest req;
  req.type = QueryType::kTopK;
  req.k = 10;
  QueryResponse resp;
  ASSERT_TRUE(server.Query(req, resp).ok());
  ASSERT_EQ(resp.seeds.size(), 10u);
  for (size_t i = 0; i < resp.seeds.size(); ++i) {
    EXPECT_EQ(resp.seeds[i], i);
    EXPECT_TRUE(std::isnan(resp.values[i])) << "seed " << i;
  }
  server.Stop();
}

TEST_F(ServerTest, BackpressureRejectsWhenQueueFull) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  cfg.queue_capacity = 2;
  Server server(graph_, cfg);  // Not started: admissions queue up.

  QueryRequest req;
  req.type = QueryType::kSpread;
  req.seeds = {0};
  std::vector<QueryResponse> resps(3);
  std::vector<QueryCompletion> dones(3);
  ASSERT_TRUE(server.SubmitAsync(&req, &resps[0], &dones[0]).ok());
  ASSERT_TRUE(server.SubmitAsync(&req, &resps[1], &dones[1]).ok());
  const Status rejected = server.SubmitAsync(&req, &resps[2], &dones[2]);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);

  // Starting the server answers the two admitted queries.
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(dones[0].Wait().ok());
  EXPECT_TRUE(dones[1].Wait().ok());
  server.Stop();
}

TEST_F(ServerTest, StopDrainsAdmittedQueriesAndRejectsNewOnes) {
  ServeConfig cfg;
  cfg.num_threads = 2;
  cfg.queue_capacity = 64;
  Server server(graph_, cfg);  // Not started yet.

  QueryRequest req;
  req.type = QueryType::kSpread;
  req.seeds = {0, 1};
  constexpr size_t kQueries = 16;
  std::vector<QueryResponse> resps(kQueries);
  std::vector<QueryCompletion> dones(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(server.SubmitAsync(&req, &resps[i], &dones[i]).ok());
  }
  ASSERT_TRUE(server.Start().ok());
  server.Stop();  // Must answer all 16 before returning.
  for (size_t i = 0; i < kQueries; ++i) {
    EXPECT_TRUE(dones[i].Wait().ok()) << "query " << i;
    EXPECT_GE(resps[i].spread, 2.0) << "query " << i;
  }

  // After Stop, admission is terminally closed.
  QueryResponse resp;
  EXPECT_EQ(server.Query(req, resp).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(server.Start().ok());  // Not restartable.
}

TEST_F(ServerTest, StopWithoutStartAnswersAdmittedQueries) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  QueryRequest req;
  req.type = QueryType::kSpread;
  req.seeds = {3};
  QueryResponse resp;
  QueryCompletion done;
  ASSERT_TRUE(server.SubmitAsync(&req, &resp, &done).ok());
  server.Stop();  // Never started: drains on the stopping thread.
  EXPECT_TRUE(done.Wait().ok());
  EXPECT_GE(resp.spread, 1.0);
}

TEST_F(ServerTest, LoadSnapshotErrorsNameThePath) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  const std::string missing = TempPath("privim_serve_no_such.ckpt");
  const Result<uint64_t> r = server.LoadSnapshot(missing);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find(missing), std::string::npos)
      << r.status().ToString();
}

TEST_F(ServerTest, LoadSnapshotServesTheCheckpointedModel) {
  Rng rng(21);
  GnnModel model(SmallConfig(), rng);
  const std::string path = TempPath("privim_serve_load.ckpt");
  ASSERT_TRUE(SaveModel(model, path).ok());

  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  const Result<uint64_t> id = server.LoadSnapshot(path);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_NE(server.CurrentSnapshot(), nullptr);
  EXPECT_EQ(server.CurrentSnapshot()->id(), id.ValueOrDie());
  ASSERT_TRUE(server.Start().ok());

  QueryRequest req;
  req.type = QueryType::kTopK;
  req.k = 4;
  QueryResponse resp;
  ASSERT_TRUE(server.Query(req, resp).ok());
  EXPECT_EQ(resp.snapshot_id, id.ValueOrDie());
  server.Stop();
  std::remove(path.c_str());
}

TEST_F(ServerTest, SwapSnapshotRejectsWrongGraph) {
  ServeConfig cfg;
  cfg.num_threads = 1;
  Server server(graph_, cfg);
  Rng rng(31);
  Graph other = std::move(ErdosRenyi(10, 0.3, true, rng)).ValueOrDie();
  const Status s = server.SwapSnapshot(TestSnapshot(other, 1));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.SwapSnapshot(nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, MetricsRecordAcceptsRejectsAndLatency) {
  MetricsRegistry metrics;
  ServeConfig cfg;
  cfg.num_threads = 1;
  cfg.queue_capacity = 1;
  cfg.metrics = &metrics;
  Server server(graph_, cfg);  // Not started: deterministic rejection.

  QueryRequest req;
  req.type = QueryType::kSpread;
  req.seeds = {0};
  QueryResponse r1, r2;
  QueryCompletion d1, d2;
  ASSERT_TRUE(server.SubmitAsync(&req, &r1, &d1).ok());
  EXPECT_EQ(server.SubmitAsync(&req, &r2, &d2).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(d1.Wait().ok());
  server.Stop();

  EXPECT_EQ(metrics.GetCounter("serve.requests.accepted")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("serve.requests.rejected")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("serve.requests.completed")->value(), 1u);
  EXPECT_EQ(metrics
                .GetHistogram("serve.latency.spread",
                              ExponentialBuckets(1e-6, 2.0, 24))
                ->total_count(),
            1u);
}

TEST_F(ServerTest, ClosedLoopHarnessReportsThroughputAndQuantiles) {
  ServeConfig cfg;
  cfg.num_threads = 2;
  cfg.rr_sketch_sets = 32;
  Server server(graph_, cfg);
  ASSERT_TRUE(server.SwapSnapshot(TestSnapshot(graph_, 5)).ok());
  ASSERT_TRUE(server.Start().ok());

  const std::vector<RequestMix> mixes =
      StandardMixes(graph_.num_nodes(), /*seed=*/11);
  ASSERT_EQ(mixes.size(), 3u);
  LoadConfig load;
  load.num_clients = 2;
  load.requests_per_client = 10;
  load.warmup_per_client = 2;
  for (const RequestMix& mix : mixes) {
    const Result<LoadReport> r = RunClosedLoopLoad(server, mix, load);
    ASSERT_TRUE(r.ok()) << mix.name << ": " << r.status().ToString();
    const LoadReport& report = r.ValueOrDie();
    EXPECT_EQ(report.failed, 0u) << mix.name;
    EXPECT_GT(report.qps, 0.0) << mix.name;
    EXPECT_LE(report.latency_p50, report.latency_p95) << mix.name;
    EXPECT_LE(report.latency_p95, report.latency_p99) << mix.name;
  }
  server.Stop();
}

}  // namespace
}  // namespace privim
