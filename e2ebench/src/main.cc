// Workload process of the end-to-end benchmark. One invocation runs one
// workload for one seed and prints one JSON line (record.h); run.py builds
// this binary, starts one process per run and turns the line into the
// benchmark's result.
//
//   privim_e2e --workload train-star|serve-topk|serve-churn --seed N
//              --seconds S --trace 0|1 [--trace-out PATH]

#include <iostream>
#include <string>

#include "loadgen.h"
#include "record.h"
#include "workloads.h"

namespace e2e {

privim::Status TimeSetups(const std::function<void()>& release,
                          const std::function<privim::Status()>& setup,
                          std::vector<double>& seconds) {
  for (int i = 0; i < kSetupsPerSide; ++i) {
    release();
    const Clock::time_point t0 = Clock::now();
    PRIVIM_RETURN_NOT_OK(setup());
    seconds.push_back(Seconds(t0, Clock::now()));
  }
  return privim::Status::OK();
}

privim::Status FinishRun(Report& report, const std::function<void()>& release,
                         const std::function<privim::Status()>& setup,
                         std::vector<double>& seconds) {
  report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
  PRIVIM_RETURN_NOT_OK(TimeSetups(release, setup, seconds));
  report.Metric("setup_s", Median(seconds), "s");
  report.Samples("setup_s", seconds.size());
  std::string each;
  for (double s : seconds) {
    each += (each.empty() ? "" : " ") + std::to_string(s);
  }
  report.Info("setup_s_each", each);
  return privim::Status::OK();
}

namespace {

// False (with a note in the record) when a percentile would rest on fewer
// than kMinBeyond samples above it.
bool EnoughBeyond(Report& report, const std::string& name,
                  const std::vector<double>& samples, double q) {
  report.Samples(name, samples.size());
  if (SamplesBeyond(samples.size(), q) >= kMinBeyond) return true;
  report.Info(name, "omitted: fewer than 10 samples beyond it; run longer");
  return false;
}

}  // namespace

void ReportPercentile(Report& report, const std::string& name,
                      const std::vector<double>& samples, double q,
                      const std::string& unit) {
  if (EnoughBeyond(report, name, samples, q)) {
    report.Metric(name, NearestRank(samples, q), unit);
  }
}

void RecordPercentile(Report& report, const std::string& name,
                      const std::vector<double>& samples, double q) {
  if (EnoughBeyond(report, name, samples, q)) {
    report.Info(name, std::to_string(NearestRank(samples, q)));
  }
}

void ReportLatency(Report& report, const std::vector<double>& ms) {
  report.Metric("latency_mean_ms", Mean(ms), "ms");
  report.Samples("latency_mean_ms", ms.size());
  ReportPercentile(report, "latency_p90_ms", ms, 0.90, "ms");
  RecordPercentile(report, "latency_p50_ms", ms, 0.50);
}

namespace {

int Usage(const std::string& why) {
  std::cerr << "privim_e2e: " << why
            << "\nusage: privim_e2e --workload train-star|serve-topk|"
               "serve-churn --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n";
  return 2;
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opts.workload = value;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opts.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        opts.trace_path = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!(opts.seconds >= 1 && opts.seconds <= 600)) {
    return Usage("--seconds must lie in [1, 600]");
  }

  Report report;
  report.SetSpinMs(SpinProbeMs());
  // Everything from here on is the workload's business.
  const Clock::time_point origin = Clock::now();
  Tracer tracer(opts.trace, origin);
  privim::Status status;
  if (opts.workload == "train-star") {
    status = RunTrainStar(opts, report, tracer);
  } else if (opts.workload == "serve-topk") {
    status = RunServeTopK(opts, report, tracer);
  } else if (opts.workload == "serve-churn") {
    status = RunServeChurn(opts, report, tracer);
  } else {
    return Usage("unknown workload '" + opts.workload + "'");
  }
  if (!status.ok()) {
    std::cerr << "privim_e2e: " << opts.workload
              << " failed: " << status.ToString() << "\n";
    return 1;
  }
  if (opts.trace) {
    report.SetSpans(tracer.Stats());
    if (!opts.trace_path.empty() && !tracer.WriteChromeJson(opts.trace_path)) {
      std::cerr << "privim_e2e: cannot write " << opts.trace_path << "\n";
      return 1;
    }
  }
  std::cout << report.ToJson(opts) << std::endl;
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
