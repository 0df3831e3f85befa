#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

// Bench-side spans for the traced run. Spans are recorded around the
// benchmark's own calls into the program (never inside it), kept in memory,
// and written at exit as Chrome trace-event JSON (open in chrome://tracing
// or https://ui.perfetto.dev).

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "loadgen.h"

namespace e2e {

struct Span {
  std::string name;
  double start = 0;  // Seconds from the tracer's origin.
  double end = 0;
  int64_t parent = -1;  // Index of the enclosing span, -1 for a root.
  uint64_t id = 0;      // Operation id: run seed, query or batch index.
  uint32_t lane = 0;    // Trace row (Chrome "tid").
};

/// Per-name totals of a span set. Self time is a span's duration minus the
/// part of its interval that its child spans cover.
struct SpanStats {
  size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing; every call is a cheap no-op.
  Tracer(bool enabled, Clock::time_point origin);

  bool enabled() const { return enabled_; }
  Clock::time_point origin() const { return origin_; }

  /// Records a finished span and returns its index (for children to name
  /// as their parent), or -1 when disabled. Thread-safe.
  int64_t Add(const std::string& name, Clock::time_point start,
              Clock::time_point end, int64_t parent, uint64_t id,
              uint32_t lane);
  /// Opens a span whose end is set later by Close (for parents whose
  /// children are recorded first). Returns -1 when disabled.
  int64_t Open(const std::string& name, Clock::time_point start,
               int64_t parent, uint64_t id, uint32_t lane);
  void Close(int64_t span, Clock::time_point end);
  /// As Add, with times already in seconds from the origin.
  int64_t AddAt(const std::string& name, double start, double end,
                int64_t parent, uint64_t id, uint32_t lane);

  std::map<std::string, SpanStats> Stats() const;
  /// Writes {"traceEvents": [...]} to `path`. False on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Splits an open loop whose queries alternate between an untraced and a
/// traced server (`traced(i)` says which) into {untraced, traced} timings,
/// and records a "query" span (due time to completion) with a
/// "load.send_lag" child (due time to send) for every traced query that
/// succeeded. `offset`: the loop's start in seconds from the tracer's
/// origin. Query spans sit on rows 10 + i % kCollectors.
std::pair<std::vector<OpTiming>, std::vector<OpTiming>> SplitTracedQueries(
    Tracer& tracer, const std::vector<OpTiming>& ops, double offset,
    const std::function<bool(size_t)>& traced);

/// Self-time totals per span name; exposed for the unit tests.
std::map<std::string, SpanStats> ComputeSpanStats(
    const std::vector<Span>& spans);

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
