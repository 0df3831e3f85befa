#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

// The three workloads. Each builds its inputs from the workload seed,
// reaches the program only through its public entry points (Pipeline,
// ModelSnapshot/Server, StreamPipeline), and fills the report: untraced,
// the end-to-end metrics; traced, the per-layer metrics.
//
// A returned error means the workload could not be set up at all; failed
// operations during the timed part are counted in the report instead.

#include <functional>
#include <vector>

#include "common/status.h"
#include "record.h"
#include "trace.h"

namespace e2e {

privim::Status RunTrainStar(const Options& opts, Report& report,
                            Tracer& tracer);
privim::Status RunServeTopK(const Options& opts, Report& report,
                            Tracer& tracer);
privim::Status RunServeChurn(const Options& opts, Report& report,
                             Tracer& tracer);

/// setup_s is the median of 2 * kSetupsPerSide set-ups: kSetupsPerSide
/// before the timed part (the last one's state is the one measured) and
/// kSetupsPerSide after it, once that state is released. A set-up lasts
/// well under a second, and the host's speed swings by up to a half for a
/// second or two at a time, so set-ups run back to back share one phase;
/// two groups half a minute apart sample two.
inline constexpr int kSetupsPerSide = 4;

/// Runs `release` (untimed: it drops the previous set-up's state) and then
/// `setup` (timed) kSetupsPerSide times, appending each set-up's wall time
/// in seconds to `seconds`.
privim::Status TimeSetups(const std::function<void()>& release,
                          const std::function<privim::Status()>& setup,
                          std::vector<double>& seconds);
/// Ends an untraced run after its timed part: reports peak_rss_mb (the
/// VmHWM so far, so the set-ups that follow do not count), runs the second
/// group of set-ups and reports the median of all as setup_s (each set-up's
/// time goes into the record as setup_s_each).
privim::Status FinishRun(Report& report, const std::function<void()>& release,
                         const std::function<privim::Status()>& setup,
                         std::vector<double>& seconds);

/// Nearest-rank percentile of `samples` reported as `name`, with its
/// sample count in the run record. A percentile with fewer than
/// kMinBeyond samples above it is omitted (a note says so): it would be
/// set by a handful of outliers.
inline constexpr size_t kMinBeyond = 10;
void ReportPercentile(Report& report, const std::string& name,
                      const std::vector<double>& samples, double q,
                      const std::string& unit);
/// The same into the run record's info: recorded, not gated.
void RecordPercentile(Report& report, const std::string& name,
                      const std::vector<double>& samples, double q);

/// The end-to-end latency of a workload's unit of work, `ms` holding one
/// sample per operation: latency_mean_ms and latency_p90_ms, with the
/// median recorded, not gated. On a shared 4-vCPU host the vCPUs run at
/// different speeds that change every few seconds (a pinned probe loop
/// read 17 ms on one and 35-50 ms on another for a minute), so a run's
/// latencies form a fast and a slow cluster and the median falls between
/// them, flipping with the share of the run spent slow: across six seeds
/// serve-churn's median spread 15 % between quartiles, its mean 8 %.
void ReportLatency(Report& report, const std::vector<double>& ms);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
