#ifndef E2EBENCH_LOADGEN_H_
#define E2EBENCH_LOADGEN_H_

// Open-loop timing math of the benchmark, kept free of any server so the
// unit tests can feed it synthetic schedules.
//
// An open loop issues operation i at its due time start + i / rate,
// whether or not earlier operations have finished. Latency counts from
// the due time, not from the moment the generator got round to sending:
// a stall therefore inflates every operation queued behind it, which is
// what a user arriving on schedule would see.

#include <chrono>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
double Seconds(Clock::time_point from, Clock::time_point to);

/// Nearest-rank percentile: the smallest sample with at least q of the
/// samples at or below it, i.e. sorted[ceil(q * n) - 1]. `q` in (0, 1].
/// Returns 0 for an empty sample.
double NearestRank(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank q-percentile of n samples. The
/// benchmark reports a percentile only when this is at least 10.
size_t SamplesBeyond(size_t n, double q);

/// One scheduled operation, all times in seconds from the schedule start.
struct OpTiming {
  double due = 0;   // When the schedule wanted it issued.
  double sent = 0;  // When the generator issued it.
  double done = 0;  // When it completed (meaningless unless ok).
  /// Admitted, answered with an OK status, and the answer passed its check.
  /// A refused, failed or wrong operation counts as missing every SLO.
  bool ok = false;
};

struct OpenLoopSummary {
  size_t attempted = 0;
  size_t failed = 0;
  /// done - due of every ok operation, in milliseconds, schedule order.
  std::vector<double> latency_ms;
  double p50_ms = 0;
  double p99_ms = 0;
  /// Ok operations within the SLO per second of the loop's span, from the
  /// schedule start to the last completion (or refusal).
  double goodput_qps = 0;
  /// How late the generator issued operations (sent - due), milliseconds.
  double lag_p99_ms = 0;
  double lag_max_ms = 0;
};

OpenLoopSummary Summarize(std::span<const OpTiming> ops, double slo_ms);

/// Waiter threads per open loop (see RunOpenLoop). With 4, a completion is
/// stamped late only when five or more queries are in flight at once.
inline constexpr size_t kCollectors = 4;

/// Runs an open loop of `count` operations at `rate` per second, the first
/// due at `start` (which may lie a little in the future so another driver
/// can share the schedule's origin).
///
/// The generator thread (the caller's) sleeps until each due time and calls
/// `issue(i)`, which must not block; it returns false when the operation
/// was refused. `collectors` waiter threads each own the operations
/// i = w (mod collectors) and call `await(i)`, which blocks until operation
/// i completes and returns whether it succeeded; the completion is stamped
/// when `await` returns. Several waiters keep a slow operation from delaying
/// the stamp of a faster one behind it; they sleep on the completions, so
/// they do not compete with the server for cores.
std::vector<OpTiming> RunOpenLoop(size_t count, double rate,
                                  size_t collectors, Clock::time_point start,
                                  const std::function<bool(size_t)>& issue,
                                  const std::function<bool(size_t)>& await);

/// A stream batch as its driver ran it, in seconds from the schedule start.
struct BatchSlot {
  double due = 0;
  double end = 0;  // When the batch's snapshot swap returned.
  bool retrained = false;
};

/// For each retrain batch, how many of the batches right after it were due
/// before the batch ahead of them had finished, i.e. started late behind
/// the retrain's backlog. The batch driver is one thread, so a batch due
/// before its predecessor ended could not start on time.
std::vector<size_t> BacklogAfterRetrains(std::span<const BatchSlot> batches);

}  // namespace e2e

#endif  // E2EBENCH_LOADGEN_H_
