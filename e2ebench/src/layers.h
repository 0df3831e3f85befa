#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

// Per-layer measurements shared by the workloads' traced runs. Every
// traced run reports every per-layer metric: the training layers of a
// PrivIM* run (train-star's own runs, serve-churn's probe rounds), the
// served model's logits plan, and zeros for the layers a workload never
// calls.

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "dp/rdp_accountant.h"
#include "obs/metrics.h"
#include "record.h"
#include "serve/snapshot.h"
#include "shard/pipeline.h"
#include "trace.h"

namespace e2e {

/// The training layers of telemetry-on Pipeline::Run calls, taken from
/// outside: the run's wall time, its PrivImRunResult and RunTelemetry.
class TrainLayers {
 public:
  /// One run of `pipeline` (built with collect_telemetry) that took
  /// `run_ms` and returned `r`.
  void Add(const privim::Pipeline& pipeline,
           const privim::PipelineRunResult& r, double run_ms);
  size_t runs() const { return run_ms_.size(); }
  const std::vector<double>& run_ms() const { return run_ms_; }
  /// Reports core.run_ms, sampling.*, core.train_ms, core.rest_ms,
  /// runtime.*, im.oracle_calls, and dp.calibrate_ms: a probe, run here,
  /// that calibrates sigma on each added run's DP-SGD spec.
  void ReportMetrics(Report& report, Tracer& tracer) const;

 private:
  std::vector<double> run_ms_, extract_ms_, train_ms_, rest_ms_, pool_ms_;
  double accepted_ = 0, rejected_ = 0, stale_ = 0, tasks_ = 0, oracle_ = 0;
  std::vector<privim::DpSgdSpec> specs_;
  privim::PrivacyBudget budget_;
};

/// A counter of a telemetry or registry snapshot (0 when absent).
double CounterOf(const privim::MetricsSnapshot& m, const std::string& name);
/// The mean of a histogram of a snapshot (0 when absent or empty).
double HistogramMean(const privim::MetricsSnapshot& m,
                     const std::string& name);

/// Median wall time in ms of 10 executions (after one warm-up) of the
/// snapshot's full-graph logits plan: the rank step of a top-k query.
double LogitsMs(const privim::ModelSnapshot& snapshot, Tracer& tracer);

/// Reports each (name, unit) per-layer metric as 0 and lists the names in
/// the record's info as "idle_layers": the workload never calls these
/// layers, so they do no work and take no time.
void ReportIdle(
    Report& report,
    std::initializer_list<std::pair<const char*, const char*>> metrics);

}  // namespace e2e

#endif  // E2EBENCH_LAYERS_H_
