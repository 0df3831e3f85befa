#ifndef E2EBENCH_RECORD_H_
#define E2EBENCH_RECORD_H_

// The result one workload process prints: metrics with units, the
// operation counts behind every percentile, failed operations, and the
// host facts of the run record. run.py turns it into the benchmark's
// final result line.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace e2e {

/// Parsed command line of the workload binary.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  /// Where the traced run writes its Chrome trace (empty = do not write).
  std::string trace_path;
};

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Operation count behind a metric (e.g. "query_p99_ms" -> 1000).
  void Samples(const std::string& metric, size_t n);
  void Info(const std::string& key, const std::string& value);

  /// One operation was attempted; `ok` false counts it as failed.
  /// `why` (first few kept) explains a failure.
  void Operation(bool ok, const std::string& why = "");
  /// A whole-run consistency check (not tied to one operation) failed.
  void CheckFailed(const std::string& why);

  void SetSpans(std::map<std::string, SpanStats> spans) {
    spans_ = std::move(spans);
  }
  void SetSpinMs(double ms) { spin_ms_ = ms; }

  bool correct() const { return failed_ == 0 && check_failures_ == 0; }

  /// One JSON object on one line.
  std::string ToJson(const Options& opts) const;

 private:
  void Note(const std::string& why);

  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, size_t> samples_;
  std::map<std::string, std::string> info_;
  std::map<std::string, SpanStats> spans_;
  std::vector<std::string> notes_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t check_failures_ = 0;
  double spin_ms_ = 0;
};

/// Median (mean of the two central samples for even sizes); 0 when empty.
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// VmHWM of this process in MiB (0 if /proc is unavailable).
double PeakRssMb();
std::string CpuModel();
/// Median wall time of a fixed single-thread integer loop, in ms. Recorded
/// with every run so records taken while the host ran slower show it: on a
/// shared 4-vCPU VM every workload's timings moved by up to 1.8x together
/// within twenty minutes.
double SpinProbeMs();

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed (graph, split, model, run seeds, request stream, update stream).
uint64_t SubSeed(uint64_t seed, uint64_t salt);

}  // namespace e2e

#endif  // E2EBENCH_RECORD_H_
