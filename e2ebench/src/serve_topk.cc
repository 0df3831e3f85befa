// serve-topk: a 2-worker Server over the Gowalla stand-in at scale 2
// (12 000 nodes, unit weights, no sketch) serving a GRAT model initialised
// from the workload seed. An open loop at a fixed 40 QPS sends top-k
// queries (k in {10, 25, 50} over all nodes, plus k = 10 over 1 000 fixed
// candidates, exact 1-step spread); then 2 closed-loop clients run for a
// fixed time. Every top-k query runs the full-graph logits plan, so the
// rank step does nearly all the work while sampling, training and
// streaming sit idle.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/privim.h"
#include "graph/datasets.h"
#include "im/diffusion.h"
#include "layers.h"
#include "nn/gnn.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "shard/pipeline.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace privim;  // NOLINT: the workload speaks the program's API.

constexpr double kScale = 2.0;
constexpr size_t kWorkers = 2;
constexpr double kRate = 40;     // Open-loop queries per second.
constexpr double kSloMs = 100;   // About 4x the p99 at 40 QPS.
constexpr size_t kClients = 2;   // Closed loop.
// Share of --seconds given to the closed loop; the rest is the open loop,
// which at 30 s yields the 1 000 queries a p99 needs for 10 samples
// beyond it.
constexpr double kClosedShare = 1.0 / 6.0;
constexpr size_t kCandidates = 1000;

struct Setup {
  // Owns the resident graph (in-CSR built once, before any worker exists).
  std::unique_ptr<Pipeline> resident;
  std::shared_ptr<const ModelSnapshot> snapshot;
  std::vector<QueryRequest> templates;
  std::vector<QueryResponse> expected;  // Bench-side answer per template.
  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<Server> server;
  double graph_build_ms = 0;
};

bool SameAnswer(const QueryResponse& got, const QueryResponse& want) {
  return got.snapshot_id == want.snapshot_id && got.seeds == want.seeds &&
         got.values == want.values && got.spread == want.spread;
}

Result<Setup> BuildSetup(uint64_t seed, bool metrics, Tracer& tracer,
                         int64_t parent) {
  Setup s;
  const Clock::time_point g0 = Clock::now();
  Rng gen_rng(SubSeed(seed, 1));
  PRIVIM_ASSIGN_OR_RETURN(Graph g,
                          MakeDataset(DatasetId::kGowalla, gen_rng, kScale));
  PRIVIM_ASSIGN_OR_RETURN(Pipeline p, Pipeline::BuildForServing(std::move(g)));
  s.resident = std::make_unique<Pipeline>(std::move(p));
  const Graph& graph = s.resident->graph();
  const Clock::time_point g1 = Clock::now();
  s.graph_build_ms = Seconds(g0, g1) * 1e3;
  tracer.Add("graph.build", g0, g1, parent, seed, 0);

  const GnnConfig gnn =
      MakeDefaultConfig(Method::kPrivImStar, 2.0, graph.num_nodes()).gnn;
  Rng model_rng(SubSeed(seed, 3));
  auto model = std::make_unique<GnnModel>(gnn, model_rng);
  PRIVIM_ASSIGN_OR_RETURN(s.snapshot,
                          ModelSnapshot::FromModel(std::move(model), graph));
  const Clock::time_point g2 = Clock::now();
  tracer.Add("snapshot.build", g1, g2, parent, seed, 0);

  for (size_t k : {10, 25, 50}) {
    QueryRequest r;
    r.type = QueryType::kTopK;
    r.k = k;
    r.estimator = SpreadEstimator::kExact;
    r.max_steps = 1;
    s.templates.push_back(r);
  }
  QueryRequest restricted = s.templates[0];
  Rng cand_rng(SubSeed(seed, 4));
  for (uint32_t c : cand_rng.SampleWithoutReplacement(
           static_cast<uint32_t>(graph.num_nodes()), kCandidates)) {
    restricted.candidates.push_back(static_cast<NodeId>(c));
  }
  std::sort(restricted.candidates.begin(), restricted.candidates.end());
  s.templates.push_back(restricted);

  QueryEngine engine;
  s.expected.resize(s.templates.size());
  for (size_t t = 0; t < s.templates.size(); ++t) {
    PRIVIM_RETURN_NOT_OK(engine.Execute(graph, s.snapshot.get(), nullptr,
                                        s.templates[t], s.expected[t]));
  }

  ServeConfig cfg;
  cfg.num_threads = kWorkers;
  cfg.rr_sketch_sets = 0;
  if (metrics) {
    s.registry = std::make_unique<MetricsRegistry>();
    cfg.metrics = s.registry.get();
  }
  s.server = std::make_unique<Server>(graph, cfg);
  PRIVIM_RETURN_NOT_OK(s.server->SwapSnapshot(s.snapshot));
  PRIVIM_RETURN_NOT_OK(s.server->Start());
  // Warm-up: every template a few times, so both workers' arenas and
  // rank buffers reach their high-water marks.
  for (int rep = 0; rep < 2 * static_cast<int>(kWorkers); ++rep) {
    for (size_t t = 0; t < s.templates.size(); ++t) {
      QueryResponse resp;
      PRIVIM_RETURN_NOT_OK(s.server->Query(s.templates[t], resp));
      if (!SameAnswer(resp, s.expected[t])) {
        return Status::Internal("warm-up answer differs from the engine's");
      }
    }
  }
  tracer.Add("server.start", g2, Clock::now(), parent, seed, 0);
  return s;
}

struct OpenLoopResult {
  Clock::time_point start;
  std::vector<OpTiming> ops;
  std::vector<size_t> template_of;
};

// Runs the open loop; query i goes to sides[i % sides.size()].
OpenLoopResult OpenLoop(const std::vector<Setup*>& sides, uint64_t seed,
                        size_t count, Report& report) {
  OpenLoopResult out;
  const size_t templates = sides[0]->templates.size();
  Rng mix_rng(SubSeed(seed, 5));
  out.template_of.resize(count);
  for (size_t& t : out.template_of) t = mix_rng.UniformInt(templates);
  std::vector<QueryResponse> responses(count);
  std::unique_ptr<QueryCompletion[]> done(new QueryCompletion[count]);
  out.start = Clock::now();
  out.ops = RunOpenLoop(
      count, kRate, kCollectors, out.start,
      [&](size_t i) {
        Setup& s = *sides[i % sides.size()];
        return s.server
            ->SubmitAsync(&s.templates[out.template_of[i]], &responses[i],
                          &done[i])
            .ok();
      },
      [&](size_t i) {
        const Setup& s = *sides[i % sides.size()];
        return done[i].Wait().ok() &&
               SameAnswer(responses[i], s.expected[out.template_of[i]]);
      });
  for (const OpTiming& op : out.ops) {
    report.Operation(op.ok, "open-loop query refused, failed or wrong");
  }
  return out;
}

// Closed loop: `kClients` clients each send the next query as soon as the
// previous one returns, for `seconds`. Returns completions within the SLO
// per second, until the last client's final query returned.
double ClosedLoop(Setup& s, uint64_t seed, double seconds, Report& report) {
  std::atomic<size_t> good{0};
  std::vector<std::vector<bool>> outcomes(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(SubSeed(seed, 50 + c));
      QueryResponse resp;
      while (Clock::now() < stop) {
        const size_t t = rng.UniformInt(s.templates.size());
        const Clock::time_point t0 = Clock::now();
        const bool ok = s.server->Query(s.templates[t], resp).ok() &&
                        SameAnswer(resp, s.expected[t]);
        const double ms = Seconds(t0, Clock::now()) * 1e3;
        outcomes[c].push_back(ok);
        if (ok && ms <= kSloMs) good.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed = Seconds(start, Clock::now());
  for (const std::vector<bool>& o : outcomes) {
    for (bool ok : o) report.Operation(ok, "closed-loop query failed or wrong");
  }
  return static_cast<double>(good.load()) / elapsed;
}

}  // namespace

Status RunServeTopK(const Options& opts, Report& report, Tracer& tracer) {
  const double open_seconds = opts.seconds * (1.0 - kClosedShare);
  const double closed_seconds = opts.seconds * kClosedShare;
  const size_t count =
      std::max<size_t>(1, static_cast<size_t>(open_seconds * kRate + 0.5));

  if (!opts.trace) {
    Setup s;
    std::vector<double> setup_seconds;
    const auto release = [&] {
      s.server.reset();  // One server's workers at a time.
      s = Setup();
    };
    const auto setup = [&]() -> Status {
      PRIVIM_ASSIGN_OR_RETURN(s, BuildSetup(opts.seed, false, tracer, -1));
      return Status::OK();
    };
    PRIVIM_RETURN_NOT_OK(TimeSetups(release, setup, setup_seconds));
    const OpenLoopResult open = OpenLoop({&s}, opts.seed, count, report);
    const OpenLoopSummary sum = Summarize(open.ops, kSloMs);
    ReportLatency(report, sum.latency_ms);
    // Recorded, not gated: the p99 follows host contention bursts (about
    // 24 ms in quiet phases, 39 ms in busy ones on a shared 4-vCPU host),
    // and its quartiles across ten seeds sat 40 % apart.
    RecordPercentile(report, "query_p99_ms", sum.latency_ms, 0.99);
    report.Info("goodput_qps", std::to_string(sum.goodput_qps));
    report.Samples("goodput_qps", sum.attempted);
    // Recorded, not gated: five seconds of closed loop sample one host
    // phase, and across ten seeds the quartiles sat up to 27 % apart.
    report.Info("peak_qps", std::to_string(ClosedLoop(s, opts.seed,
                                                      closed_seconds, report)));
    report.Info("open_loop_lag_max_ms", std::to_string(sum.lag_max_ms));
    report.Info("open_loop_lag_p99_ms", std::to_string(sum.lag_p99_ms));
    report.Info("slo_ms", std::to_string(kSloMs));
    s.server->Stop();
    PRIVIM_RETURN_NOT_OK(FinishRun(report, release, setup, setup_seconds));
    return Status::OK();
  }

  // Traced: queries alternate between an untraced server and one with its
  // metrics registry on, so host drift cancels out of trace.overhead_pct.
  // The traced server's queries get bench-side spans, and it alone serves
  // the closed loop; probes run last.
  const int64_t root = tracer.Open("setup", Clock::now(), -1, opts.seed, 0);
  Setup plain, s;
  PRIVIM_ASSIGN_OR_RETURN(plain, BuildSetup(opts.seed, false, tracer, root));
  PRIVIM_ASSIGN_OR_RETURN(s, BuildSetup(opts.seed, true, tracer, root));
  tracer.Close(root, Clock::now());
  const OpenLoopResult open = OpenLoop({&plain, &s}, opts.seed, count, report);
  plain.server->Stop();
  const auto [base_ops, traced_ops] =
      SplitTracedQueries(tracer, open.ops, Seconds(tracer.origin(), open.start),
                         [](size_t i) { return i % 2 == 1; });
  ClosedLoop(s, opts.seed, closed_seconds, report);
  s.server->Stop();  // Flushes the workspace counters into the registry.
  const OpenLoopSummary base_sum = Summarize(base_ops, kSloMs);
  const OpenLoopSummary sum = Summarize(traced_ops, kSloMs);
  const Graph& graph = s.resident->graph();

  // Probes on the same inputs, after the timed loops.
  const double logits_ms = LogitsMs(*s.snapshot, tracer);
  QueryEngine engine;
  QueryResponse resp;
  for (const QueryRequest& t : s.templates) {
    PRIVIM_RETURN_NOT_OK(engine.Execute(graph, s.snapshot.get(), nullptr, t,
                                        resp));
  }
  std::vector<double> service_ms;
  for (size_t i = 0; i < std::min<size_t>(open.template_of.size(), 200);
       ++i) {
    const size_t t = open.template_of[i];
    const Clock::time_point t0 = Clock::now();
    const Status st =
        engine.Execute(graph, s.snapshot.get(), nullptr, s.templates[t], resp);
    const Clock::time_point t1 = Clock::now();
    if (!st.ok() || !SameAnswer(resp, s.expected[t])) {
      report.CheckFailed("service probe answer differs");
    }
    service_ms.push_back(Seconds(t0, t1) * 1e3);
    tracer.Add("probe.service", t0, t1, -1, i, 2);
  }
  std::vector<double> spread_ms;
  for (int rep = 0; rep < 25; ++rep) {
    for (const QueryResponse& e : s.expected) {
      const Clock::time_point t0 = Clock::now();
      const size_t spread = ExactUnitWeightSpread(graph, e.seeds, 1);
      const Clock::time_point t1 = Clock::now();
      if (static_cast<double>(spread) != e.spread) {
        report.CheckFailed("spread probe differs from the served spread");
      }
      spread_ms.push_back(Seconds(t0, t1) * 1e3);
    }
  }

  const MetricsSnapshot m = s.registry->Snapshot();
  const double service_mean = Mean(service_ms);
  report.Metric("graph.build_ms", s.graph_build_ms, "ms");
  report.Metric("nn.logits_ms", logits_ms, "ms");
  report.Metric("serve.service_ms", service_mean, "ms");
  report.Samples("serve.service_ms", service_ms.size());
  report.Metric("serve.queue_wait_ms",
                HistogramMean(m, "serve.latency.topk") * 1e3 - service_mean, "ms");
  report.Metric("serve.batch_size", HistogramMean(m, "serve.batch_size"), "count");
  report.Metric("serve.ws_touched_nodes",
                CounterOf(m, "serve.ws.touched_nodes") /
                    std::max(1.0, CounterOf(m, "serve.requests.completed")),
                "count");
  report.Metric("im.spread_ms", Median(spread_ms), "ms");
  report.Metric("load.lag_p99_ms", sum.lag_p99_ms, "ms");
  report.Samples("load.lag_p99_ms", sum.attempted);
  report.Metric("trace.overhead_pct",
                100.0 * (sum.p50_ms / base_sum.p50_ms - 1.0), "%");
  report.Samples("trace.overhead_pct", sum.latency_ms.size());
  ReportIdle(report, {{"core.run_ms", "ms"},
                      {"sampling.extract_ms", "ms"},
                      {"sampling.accept_ratio", "ratio"},
                      {"sampling.stale_replays", "count"},
                      {"core.train_ms", "ms"},
                      {"core.rest_ms", "ms"},
                      {"dp.calibrate_ms", "ms"},
                      {"runtime.pool_busy_ms", "ms"},
                      {"runtime.tasks", "count"},
                      {"im.oracle_calls", "count"},
                      {"serve.swap_ms", "ms"},
                      {"stream.step_ms", "ms"},
                      {"stream.repair_frac", "ratio"},
                      {"stream.retrain_ms", "ms"},
                      {"stream.snapshot_ms", "ms"},
                      {"stream.update_p50_ms", "ms"},
                      {"stream.update_rest_ms", "ms"},
                      {"stream.backlog_max_ms", "ms"}});
  return Status::OK();
}

}  // namespace e2e
