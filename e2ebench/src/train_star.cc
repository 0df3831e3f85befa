// train-star: PrivIM* runs back to back through Pipeline::Build/Run at the
// paper's defaults (epsilon = 2, GRAT 3x32, L = 200, n = 40, M = 6, B = 16,
// 60 iterations, k = 50, exact 1-step evaluation) on Gowalla stand-ins
// (6 000 nodes, 50/50 split), 2 pool threads, cycling a fixed list of
// (graph, run seed) instances. The paper's product path: sampling, DP-SGD
// and calibration plus evaluation share every run while serving and
// streaming sit idle.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/privim.h"
#include "graph/datasets.h"
#include "graph/subgraph.h"
#include "im/diffusion.h"
#include "layers.h"
#include "serve/snapshot.h"
#include "shard/pipeline.h"
#include "workloads.h"

namespace e2e {
namespace {

using privim::Graph;
using privim::Pipeline;
using privim::PipelineRunResult;
using privim::Result;
using privim::Status;

constexpr double kEpsilon = 2.0;
constexpr size_t kThreads = 2;
// Instances per process, each its own stand-in graph, split and run seed,
// all derived from the workload seed. One DP-trained model in a dozen or so
// ranks poorly (its spread is a fraction of the others'), so seed_spread
// averages many instances: with 10 of them its quartiles across workload
// seeds sat 11 % apart, with 100 the expected gap is about 3 %. Cycling
// them also averages how much one graph draw moves run time.
constexpr size_t kInstances = 100;
// One PrivIM* run takes ~0.1 s on a 4-vCPU AVX-512 host; the run count is
// fixed from --seconds with it, so every percentile has a fixed sample
// count and seed_spread averages the same runs every time.
constexpr double kNominalRunSeconds = 0.1;

struct Setup {
  std::vector<Pipeline> pipelines;  // pipelines[s] runs instance s.
  std::vector<uint64_t> run_seeds;
  double graph_build_ms = 0;
};

Result<Setup> BuildSetup(uint64_t seed, bool telemetry, Tracer& tracer,
                         int64_t parent) {
  Setup setup;
  for (size_t s = 0; s < kInstances; ++s) {
    const Clock::time_point g0 = Clock::now();
    privim::Rng gen_rng(SubSeed(seed, 10 + 2 * s));
    PRIVIM_ASSIGN_OR_RETURN(
        Graph full,
        privim::MakeDataset(privim::DatasetId::kGowalla, gen_rng));
    privim::Rng split_rng(SubSeed(seed, 11 + 2 * s));
    PRIVIM_ASSIGN_OR_RETURN(privim::NodeSplit split,
                            privim::SplitNodes(full.num_nodes(), split_rng));
    PRIVIM_ASSIGN_OR_RETURN(privim::Subgraph train,
                            privim::InduceSubgraph(full, split.train));
    PRIVIM_ASSIGN_OR_RETURN(privim::Subgraph eval,
                            privim::InduceSubgraph(full, split.test));
    const Clock::time_point g1 = Clock::now();
    setup.graph_build_ms += Seconds(g0, g1) * 1e3;
    tracer.Add("graph.build", g0, g1, parent, s, 0);

    privim::PipelineConfig config;
    config.method = privim::MakeDefaultConfig(
        privim::Method::kPrivImStar, kEpsilon, train.local.num_nodes());
    config.method.runtime.num_threads = kThreads;
    config.seed = SubSeed(seed, 100 + s);
    config.collect_telemetry = telemetry;
    setup.run_seeds.push_back(config.seed);
    PRIVIM_ASSIGN_OR_RETURN(
        Pipeline p, Pipeline::Build(std::move(train.local),
                                    std::move(eval.local), std::move(config)));
    setup.pipelines.push_back(std::move(p));
    tracer.Add("pipeline.build", g1, Clock::now(), parent, s, 0);
  }
  return setup;
}

// The output checks of one run; an empty string means it passed.
std::string CheckRun(const Result<PipelineRunResult>& r, size_t k,
                     double* expected_spread) {
  if (!r.ok()) return r.status().ToString();
  const privim::PrivImRunResult& run = r->run;
  if (!(run.epsilon_spent <= kEpsilon * (1 + 1e-9))) {
    return "epsilon_spent " + std::to_string(run.epsilon_spent) +
           " exceeds the budget";
  }
  if (run.audited_max_occurrence > run.occurrence_bound) {
    return "audited occurrence above the bound";
  }
  std::set<privim::NodeId> distinct(r->seeds.begin(), r->seeds.end());
  if (r->seeds.size() != k || distinct.size() != k) {
    return "expected " + std::to_string(k) + " distinct seeds";
  }
  if (*expected_spread < 0) {
    *expected_spread = r->spread;
  } else if (r->spread != *expected_spread) {
    return "spread differs between repeats of one run seed";
  }
  return "";
}

}  // namespace

Status RunTrainStar(const Options& opts, Report& report, Tracer& tracer) {
  const size_t k = privim::MakeDefaultConfig(privim::Method::kPrivImStar,
                                             kEpsilon, 1)
                       .seed_count;
  // Runs per process: a whole number of passes over the instances.
  const size_t passes = std::max<size_t>(
      1, static_cast<size_t>(opts.seconds / kNominalRunSeconds / kInstances +
                             0.5));
  const size_t runs = passes * kInstances;
  std::vector<double> expected(kInstances, -1.0);

  Setup plain;  // Telemetry off: the end-to-end measurement.
  Setup traced;  // Telemetry on (traced run only).
  std::vector<double> setup_seconds;
  // One set-up's graphs in memory at a time.
  const auto release = [&] { plain = Setup(); };
  const auto setup = [&]() -> Status {
    PRIVIM_ASSIGN_OR_RETURN(plain, BuildSetup(opts.seed, false, tracer, -1));
    // Warm-up: thread pool, allocator and page cache.
    report.Operation(
        CheckRun(plain.pipelines[0].Run(), k, &expected[0]).empty(),
        "warm-up run failed");
    return Status::OK();
  };
  if (!opts.trace) {
    PRIVIM_RETURN_NOT_OK(TimeSetups(release, setup, setup_seconds));
  } else {
    const int64_t root = tracer.Open("setup", Clock::now(), -1, opts.seed, 0);
    PRIVIM_ASSIGN_OR_RETURN(plain, BuildSetup(opts.seed, false, tracer, root));
    PRIVIM_ASSIGN_OR_RETURN(traced, BuildSetup(opts.seed, true, tracer, root));
    const Clock::time_point w0 = Clock::now();
    const std::string why = CheckRun(plain.pipelines[0].Run(), k, &expected[0]);
    report.Operation(why.empty(), why);
    tracer.Add("warmup", w0, Clock::now(), root, plain.run_seeds[0], 0);
    tracer.Close(root, Clock::now());
    report.Metric("graph.build_ms", traced.graph_build_ms, "ms");
  }

  // Timed loop. Traced: runs alternate between the untraced and the
  // telemetry-on pipelines, so host drift cancels out of
  // trace.overhead_pct, and the parity flips every pass so both sides see
  // every instance.
  std::vector<double> plain_ms;
  TrainLayers layers;
  // The last traced run's model and seeds, for the probes after the loop.
  std::unique_ptr<privim::GnnModel> probe_model;
  std::vector<privim::NodeId> probe_seeds;
  double probe_spread = 0;
  size_t probe_instance = 0;
  std::vector<double> spread_of(kInstances, 0);
  for (size_t i = 0; i < runs; ++i) {
    const size_t s = i % kInstances;
    const bool use_traced = opts.trace && (s + i / kInstances) % 2 == 1;
    Pipeline& pipeline = (use_traced ? traced : plain).pipelines[s];
    const Clock::time_point t0 = Clock::now();
    Result<PipelineRunResult> r = pipeline.Run();
    const Clock::time_point t1 = Clock::now();
    const double ms = Seconds(t0, t1) * 1e3;
    const std::string why = CheckRun(r, k, &expected[s]);
    report.Operation(why.empty(), why);
    if (!why.empty()) continue;
    spread_of[s] = r->spread;
    if (!use_traced) {
      plain_ms.push_back(ms);
      continue;
    }
    tracer.Add("core.run", t0, t1, -1, plain.run_seeds[s], 1);
    layers.Add(pipeline, *r, ms);
    probe_model = std::move(r->model);
    probe_seeds = r->seeds;
    probe_spread = r->spread;
    probe_instance = s;
  }

  // seed_spread: the mean over the instances, each instance's spread being
  // checked identical on every repeat above. Recorded, not gated: the
  // other workloads release no comparable seed set.
  double spread_sum = 0;
  for (double v : spread_of) spread_sum += v;
  report.Info("seed_spread",
              std::to_string(spread_sum / static_cast<double>(kInstances)));
  report.Samples("seed_spread", kInstances);
  report.Info("runs", std::to_string(runs));
  report.Info("threads", std::to_string(kThreads));

  if (!opts.trace) {
    ReportLatency(report, plain_ms);
    PRIVIM_RETURN_NOT_OK(FinishRun(report, release, setup, setup_seconds));
    return Status::OK();
  }
  if (probe_model == nullptr) {
    return Status::Internal("no traced run succeeded");
  }

  // Probes on the last traced run's inputs, after the timed loop so they
  // never perturb it: the trained model's logits over the evaluation graph,
  // and the exact 1-step spread of its seeds (the run's evaluation step).
  const Graph& eval = traced.pipelines[probe_instance].eval_graph();
  PRIVIM_ASSIGN_OR_RETURN(
      std::shared_ptr<const privim::ModelSnapshot> snapshot,
      privim::ModelSnapshot::FromModel(std::move(probe_model), eval));
  const double logits_ms = LogitsMs(*snapshot, tracer);
  std::vector<double> spread_ms;
  for (int rep = 0; rep < 25; ++rep) {
    const Clock::time_point t0 = Clock::now();
    const size_t spread = privim::ExactUnitWeightSpread(eval, probe_seeds, 1);
    const Clock::time_point t1 = Clock::now();
    if (static_cast<double>(spread) != probe_spread) {
      report.CheckFailed("spread probe differs from the run's spread");
    }
    spread_ms.push_back(Seconds(t0, t1) * 1e3);
    tracer.Add("probe.spread", t0, t1, -1, rep, 2);
  }

  layers.ReportMetrics(report, tracer);
  report.Metric("nn.logits_ms", logits_ms, "ms");
  report.Metric("im.spread_ms", Median(spread_ms), "ms");
  report.Metric("trace.overhead_pct",
                100.0 * (Median(layers.run_ms()) / Median(plain_ms) - 1.0),
                "%");
  report.Samples("trace.overhead_pct", plain_ms.size());
  ReportIdle(report, {{"serve.service_ms", "ms"},
                      {"serve.queue_wait_ms", "ms"},
                      {"serve.batch_size", "count"},
                      {"serve.ws_touched_nodes", "count"},
                      {"serve.swap_ms", "ms"},
                      {"stream.step_ms", "ms"},
                      {"stream.repair_frac", "ratio"},
                      {"stream.retrain_ms", "ms"},
                      {"stream.snapshot_ms", "ms"},
                      {"stream.update_p50_ms", "ms"},
                      {"stream.update_rest_ms", "ms"},
                      {"stream.backlog_max_ms", "ms"},
                      {"load.lag_p99_ms", "ms"}});
  return Status::OK();
}

}  // namespace e2e
