// Closed-loop load generator for the online serving layer (src/serve/).
//
// Drives a Server with the standard request mixes (serve/harness.h) at
// 1, 2, and 4 worker threads (4 = the cores of the reference host: no row
// runs more workers than cores) over two graphs — a synthetic 100k-node
// Watts-Strogatz ring ("WS-100k") and the HepPh citation graph — and
// writes QPS plus p50/p95/p99 latency per (dataset, mix, threads) cell to
// BENCH_serve.json, with the host's core count and dispatched kernel tier
// and, per graph, the time of the snapshot's one ranking — the inference
// the first top-k query pays (docs/performance.md records a summary).
//
// Closed loop: each client keeps exactly one request outstanding, so
// offered load adapts to capacity and the latency quantiles are free of
// coordinated-omission bias. Clients outnumber workers at every thread
// count (2x), keeping every worker busy without flooding the queue.
//
// Environment:
//   BENCH_SERVE_REQUESTS  requests per client per cell (default 200)
//   BENCH_SERVE_OUT       output path (default BENCH_serve.json)
//   PRIVIM_BENCH_SCALE    shrinks the graphs for smoke runs (e.g. 0.05)

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "nn/features.h"
#include "nn/gnn.h"
#include "serve/harness.h"
#include "serve/server.h"
#include "tensor/kernels.h"

namespace privim {
namespace {

size_t RequestsFromEnv() {
  const char* env = std::getenv("BENCH_SERVE_REQUESTS");
  if (env == nullptr) return 200;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : 200;
}

std::string OutPathFromEnv() {
  const char* env = std::getenv("BENCH_SERVE_OUT");
  return env != nullptr ? std::string(env) : std::string("BENCH_serve.json");
}

std::shared_ptr<const ModelSnapshot> RandomSnapshot(const Graph& g,
                                                    uint64_t seed) {
  GnnConfig cfg;
  cfg.type = GnnType::kGrat;
  cfg.in_dim = kNodeFeatureDim;
  Rng rng(seed);
  auto model = std::make_unique<GnnModel>(cfg, rng);
  return bench::DieOnError(ModelSnapshot::FromModel(std::move(model), g),
                           "snapshot build");
}

struct Cell {
  std::string dataset;
  std::string mix;
  size_t threads = 0;
  LoadReport report;
};

void AppendJson(std::string& out, const Cell& cell) {
  out += StrFormat(
      "    {\"dataset\": \"%s\", \"mix\": \"%s\", \"threads\": %zu, "
      "\"completed\": %zu, \"rejected\": %zu, \"failed\": %zu, "
      "\"wall_seconds\": %.6f, \"qps\": %.1f, "
      "\"latency_p50_ms\": %.4f, \"latency_p95_ms\": %.4f, "
      "\"latency_p99_ms\": %.4f, \"latency_mean_ms\": %.4f}",
      cell.dataset.c_str(), cell.mix.c_str(), cell.threads,
      cell.report.completed, cell.report.rejected, cell.report.failed,
      cell.report.wall_seconds, cell.report.qps,
      cell.report.latency_p50 * 1e3, cell.report.latency_p95 * 1e3,
      cell.report.latency_p99 * 1e3, cell.report.latency_mean * 1e3);
}

/// Runs every (threads, mix) cell of one graph and returns the
/// milliseconds of the snapshot's one ranking (the inference its first
/// top-k pays). The ranking is timed apart, before any cell, so it does
/// not land in the first cell's wall time.
double RunDataset(const std::string& name, const Graph& g,
                  size_t requests_per_client, std::vector<Cell>& cells) {
  std::cout << name << ": " << g.num_nodes() << " nodes, "
            << g.num_edges() << " edges\n";
  const auto snapshot = RandomSnapshot(g, /*seed=*/17);
  WallTimer rank_timer;
  snapshot->ranking();
  const double rank_ms = rank_timer.ElapsedSeconds() * 1e3;
  std::cout << StrFormat("  ranking (first top-k): %.1f ms\n", rank_ms);
  const std::vector<RequestMix> mixes =
      StandardMixes(g.num_nodes(), /*seed=*/23);

  for (const size_t threads : {1u, 2u, 4u}) {
    ServeConfig cfg;
    cfg.num_threads = threads;
    cfg.queue_capacity = 1024;
    cfg.rr_sketch_sets = 2048;
    Server server(g, cfg);
    bench::DieOnError(server.SwapSnapshot(snapshot), "snapshot swap");
    bench::DieOnError(server.Start(), "server start");

    for (const RequestMix& mix : mixes) {
      LoadConfig load;
      load.num_clients = 2 * threads;
      load.requests_per_client = requests_per_client;
      load.warmup_per_client = 8;
      Cell cell;
      cell.dataset = name;
      cell.mix = mix.name;
      cell.threads = threads;
      cell.report = bench::DieOnError(
          RunClosedLoopLoad(server, mix, load),
          StrFormat("load run %s/%s", name.c_str(), mix.name.c_str()));
      std::cout << StrFormat(
          "  %-16s threads=%zu  qps=%9.1f  p50=%8.3fms  p95=%8.3fms  "
          "p99=%8.3fms  rejected=%zu\n",
          mix.name.c_str(), threads, cell.report.qps,
          cell.report.latency_p50 * 1e3, cell.report.latency_p95 * 1e3,
          cell.report.latency_p99 * 1e3, cell.report.rejected);
      cells.push_back(std::move(cell));
    }
    server.Stop();
  }
  return rank_ms;
}

void Run() {
  const size_t requests = RequestsFromEnv();
  const double scale = ScaleFromEnv();
  PrintBenchHeader("Serving layer: closed-loop load, QPS and latency",
                   /*repeats=*/1);

  std::vector<Cell> cells;
  std::string rank_ms;
  {
    Rng rng(101);
    const size_t n =
        std::max<size_t>(static_cast<size_t>(100000 * scale), 1000);
    Graph ws = bench::DieOnError(WattsStrogatz(n, 5, 0.05, rng),
                                 "WattsStrogatz");
    rank_ms += StrFormat("\"WS-100k\": %.1f",
                         RunDataset("WS-100k", ws, requests, cells));
  }
  {
    Rng rng(102);
    Graph hepph = bench::DieOnError(
        MakeDataset(DatasetId::kHepPh, rng, scale), "MakeDataset HepPh");
    rank_ms += StrFormat(", \"HepPh\": %.1f",
                         RunDataset("HepPh", hepph, requests, cells));
  }

  const std::string out_path = OutPathFromEnv();
  std::string json = StrFormat(
      "{\n  \"bench\": \"serve\",\n  \"host\": {\"nproc\": %u, "
      "\"isa\": \"%s\"},\n  \"ranking_ms\": {%s},\n  \"cells\": [\n",
      std::thread::hardware_concurrency(),
      simd::IsaName(simd::ResolveIsa()), rank_ms.c_str());
  for (size_t i = 0; i < cells.size(); ++i) {
    AppendJson(json, cells[i]);
    json += (i + 1 < cells.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    std::exit(1);
  }
  out << json;
  std::cout << "\nwrote " << cells.size() << " cells to " << out_path
            << "\n";
}

}  // namespace
}  // namespace privim

int main() {
  privim::Run();
  return 0;
}
