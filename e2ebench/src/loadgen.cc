#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

namespace e2e {

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return n - rank;
}

OpenLoopSummary Summarize(std::span<const OpTiming> ops, double slo_ms) {
  OpenLoopSummary s;
  s.attempted = ops.size();
  std::vector<double> lag_ms;
  lag_ms.reserve(ops.size());
  size_t good = 0;
  double span = 0;
  for (const OpTiming& op : ops) {
    lag_ms.push_back((op.sent - op.due) * 1e3);
    span = std::max(span, op.ok ? op.done : op.sent);
    if (!op.ok) {
      ++s.failed;
      continue;
    }
    const double latency = (op.done - op.due) * 1e3;
    s.latency_ms.push_back(latency);
    if (latency <= slo_ms) ++good;
  }
  s.p50_ms = NearestRank(s.latency_ms, 0.50);
  s.p99_ms = NearestRank(s.latency_ms, 0.99);
  s.goodput_qps = span > 0 ? static_cast<double>(good) / span : 0;
  s.lag_p99_ms = NearestRank(lag_ms, 0.99);
  s.lag_max_ms =
      lag_ms.empty() ? 0 : *std::max_element(lag_ms.begin(), lag_ms.end());
  return s;
}

std::vector<OpTiming> RunOpenLoop(size_t count, double rate,
                                  size_t collectors, Clock::time_point start,
                                  const std::function<bool(size_t)>& issue,
                                  const std::function<bool(size_t)>& await) {
  std::vector<OpTiming> ops(count);
  // 0 = not yet issued, 1 = admitted, 2 = refused. Waiters block on it
  // until the generator has decided the operation's fate.
  std::unique_ptr<std::atomic<int>[]> state(new std::atomic<int>[count]);
  for (size_t i = 0; i < count; ++i) state[i].store(0);

  collectors = std::max<size_t>(collectors, 1);
  std::vector<std::thread> waiters;
  waiters.reserve(collectors);
  for (size_t w = 0; w < collectors; ++w) {
    waiters.emplace_back([&, w] {
      for (size_t i = w; i < count; i += collectors) {
        state[i].wait(0);
        if (state[i].load() != 1) continue;
        const bool ok = await(i);
        ops[i].done = Seconds(start, Clock::now());
        ops[i].ok = ok;
      }
    });
  }
  for (size_t i = 0; i < count; ++i) {
    ops[i].due = static_cast<double>(i) / rate;
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(ops[i].due)));
    ops[i].sent = Seconds(start, Clock::now());
    state[i].store(issue(i) ? 1 : 2);
    state[i].notify_all();
  }
  for (std::thread& t : waiters) t.join();
  return ops;
}

std::vector<size_t> BacklogAfterRetrains(std::span<const BatchSlot> batches) {
  std::vector<size_t> late;
  for (size_t r = 0; r < batches.size(); ++r) {
    if (!batches[r].retrained) continue;
    size_t n = 0;
    for (size_t b = r + 1;
         b < batches.size() && batches[b - 1].end > batches[b].due; ++b) {
      ++n;
    }
    late.push_back(n);
  }
  return late;
}

}  // namespace e2e
