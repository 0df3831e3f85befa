#include "layers.h"

#include <algorithm>
#include <string>

#include "loadgen.h"
#include "tensor/plan.h"

namespace e2e {
namespace {

double TimerMs(const privim::MetricsSnapshot& m, const std::string& name) {
  const auto it = m.timers.find(name);
  return it == m.timers.end() ? 0 : it->second.seconds * 1e3;
}

}  // namespace

double CounterOf(const privim::MetricsSnapshot& m, const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : static_cast<double>(it->second);
}

double HistogramMean(const privim::MetricsSnapshot& m,
                     const std::string& name) {
  const auto it = m.histograms.find(name);
  return it == m.histograms.end() || it->second.total == 0
             ? 0
             : it->second.sum / static_cast<double>(it->second.total);
}

void TrainLayers::Add(const privim::Pipeline& pipeline,
                      const privim::PipelineRunResult& r, double run_ms) {
  const privim::PrivImRunResult& run = r.run;
  const privim::MetricsSnapshot m = pipeline.Telemetry().metrics.Snapshot();
  const double extract = run.preprocessing_seconds * 1e3;
  const double train = TimerMs(m, "train.iteration");
  run_ms_.push_back(run_ms);
  extract_ms_.push_back(extract);
  train_ms_.push_back(train);
  rest_ms_.push_back(run_ms - extract - train);
  pool_ms_.push_back(TimerMs(m, "runtime.parallel_for"));
  accepted_ += CounterOf(m, "sampler.freq.walks_accepted");
  rejected_ += CounterOf(m, "sampler.freq.walks_rejected");
  stale_ += CounterOf(m, "sampler.freq.stale_replays");
  tasks_ += CounterOf(m, "runtime.tasks_executed");
  oracle_ += CounterOf(m, "im.oracle_calls");
  const privim::PrivImConfig& method = pipeline.config().method;
  privim::DpSgdSpec spec;
  spec.max_occurrences = std::max<size_t>(1, run.occurrence_bound);
  spec.container_size = run.container_size;
  spec.batch_size = method.train.batch_size;
  spec.iterations = method.train.iterations;
  spec.clip_bound = run.clip_bound_used;
  specs_.push_back(spec);
  budget_ = method.budget;
}

void TrainLayers::ReportMetrics(Report& report, Tracer& tracer) const {
  std::vector<double> calibrate_ms;
  for (size_t i = 0; i < specs_.size(); ++i) {
    const Clock::time_point c0 = Clock::now();
    privim::Result<privim::RdpAccountant> acc =
        privim::RdpAccountant::Create(specs_[i]);
    const bool ok = acc.ok() && acc->CalibrateSigma(budget_).ok();
    const Clock::time_point c1 = Clock::now();
    if (!ok) report.CheckFailed("calibration probe failed");
    calibrate_ms.push_back(Seconds(c0, c1) * 1e3);
    tracer.Add("probe.calibrate", c0, c1, -1, i, 2);
  }
  const double n = static_cast<double>(std::max<size_t>(runs(), 1));
  report.Metric("core.run_ms", Median(run_ms_), "ms");
  report.Samples("core.run_ms", runs());
  report.Metric("sampling.extract_ms", Median(extract_ms_), "ms");
  report.Metric("sampling.accept_ratio",
                accepted_ + rejected_ > 0
                    ? accepted_ / (accepted_ + rejected_)
                    : 0,
                "ratio");
  report.Metric("sampling.stale_replays", stale_ / n, "count");
  report.Metric("core.train_ms", Median(train_ms_), "ms");
  report.Metric("core.rest_ms", Median(rest_ms_), "ms");
  report.Metric("dp.calibrate_ms", Median(calibrate_ms), "ms");
  report.Samples("dp.calibrate_ms", calibrate_ms.size());
  report.Metric("runtime.pool_busy_ms", Median(pool_ms_), "ms");
  report.Metric("runtime.tasks", tasks_ / n, "count");
  report.Metric("im.oracle_calls", oracle_ / n, "count");
}

double LogitsMs(const privim::ModelSnapshot& snapshot, Tracer& tracer) {
  privim::PlanArena arena;
  std::vector<double> ms;
  for (int rep = 0; rep < 11; ++rep) {
    const Clock::time_point t0 = Clock::now();
    snapshot.logits_plan().Forward(snapshot.flat_params(),
                                   snapshot.features(), arena);
    const Clock::time_point t1 = Clock::now();
    if (rep > 0) ms.push_back(Seconds(t0, t1) * 1e3);  // 0 warms.
    tracer.Add("probe.logits", t0, t1, -1, rep, 2);
  }
  return Median(ms);
}

void ReportIdle(
    Report& report,
    std::initializer_list<std::pair<const char*, const char*>> metrics) {
  std::string names;
  for (const auto& [name, unit] : metrics) {
    report.Metric(name, 0, unit);
    names += (names.empty() ? "" : " ") + std::string(name);
  }
  report.Info("idle_layers", names);
}

}  // namespace e2e
