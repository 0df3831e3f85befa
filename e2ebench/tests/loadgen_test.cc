// Timing math of the open-loop generator and the span self-time rule, on
// synthetic schedules (no server involved).

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "trace.h"

namespace e2e {
namespace {

OpTiming Op(double due, double sent, double done, bool ok = true) {
  return OpTiming{due, sent, done, ok};
}

TEST(Summarize, LatencyCountsFromTheDueTime) {
  // Ops due every 10 ms. The server stalls until 100 ms, then drains the
  // backlog 1 ms apart: the queued ops carry the stall in their latency
  // even though each was sent on time and served quickly once reached.
  const std::vector<OpTiming> ops = {Op(0.00, 0.00, 0.100),
                                     Op(0.01, 0.01, 0.101),
                                     Op(0.02, 0.02, 0.102)};
  const OpenLoopSummary s = Summarize(ops, /*slo_ms=*/1000);
  ASSERT_EQ(s.latency_ms.size(), 3u);
  EXPECT_NEAR(s.latency_ms[0], 100, 1e-9);
  EXPECT_NEAR(s.latency_ms[1], 91, 1e-9);
  EXPECT_NEAR(s.latency_ms[2], 82, 1e-9);
}

TEST(Summarize, LateSendDoesNotHideTheWait) {
  // The generator itself stalled: sent 50 ms late, served in 1 ms. The
  // latency is 51 ms from the due time, not 1 ms from the send.
  const std::vector<OpTiming> ops = {Op(0.0, 0.050, 0.051)};
  const OpenLoopSummary s = Summarize(ops, 1000);
  EXPECT_NEAR(s.p50_ms, 51, 1e-9);
  EXPECT_NEAR(s.lag_max_ms, 50, 1e-9);
}

TEST(Summarize, RefusalsAndSloMissesAreExcludedFromGoodput) {
  const std::vector<OpTiming> ops = {
      Op(0.0, 0.0, 0.010),                 // 10 ms: good.
      Op(0.1, 0.1, 0.150),                 // 50 ms: misses a 40 ms SLO.
      Op(0.2, 0.2, 0.0, /*ok=*/false),     // Refused.
      Op(0.3, 0.3, 0.305),                 // 5 ms: good.
  };
  const OpenLoopSummary s = Summarize(ops, /*slo_ms=*/40);
  EXPECT_EQ(s.attempted, 4u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.latency_ms.size(), 3u);  // The refusal has no latency.
  // Two good ones over the span from the start to the last completion.
  EXPECT_DOUBLE_EQ(s.goodput_qps, 2 / 0.305);
}

TEST(NearestRank, MatchesKnownSamples) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // Unsorted input.
  EXPECT_EQ(NearestRank(v, 0.50), 50);
  EXPECT_EQ(NearestRank(v, 0.90), 90);
  EXPECT_EQ(NearestRank(v, 0.99), 99);
  EXPECT_EQ(NearestRank(v, 1.00), 100);
  EXPECT_EQ(NearestRank({7}, 0.99), 7);
  EXPECT_EQ(NearestRank({3, 1, 2}, 0.50), 2);  // ceil(1.5) = 2nd smallest.
  EXPECT_EQ(NearestRank({4, 1, 3, 2}, 0.50), 2);
  EXPECT_EQ(NearestRank({}, 0.5), 0);
}

TEST(NearestRank, SamplesBeyondThePercentile) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);  // Rank ceil(989.01) = 990.
  EXPECT_EQ(SamplesBeyond(100, 0.90), 10u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
}

TEST(Summarize, LatenessIsReported) {
  std::vector<OpTiming> ops;
  for (int i = 0; i < 100; ++i) {
    const double due = i * 0.01;
    const double lag = i == 42 ? 0.030 : (i >= 98 ? 0.010 : 0.0);
    ops.push_back(Op(due, due + lag, due + lag + 0.001));
  }
  const OpenLoopSummary s = Summarize(ops, 1000);
  EXPECT_NEAR(s.lag_max_ms, 30, 1e-9);
  EXPECT_NEAR(s.lag_p99_ms, 10, 1e-9);  // 99th of 100 = second largest.
}

TEST(RunOpenLoop, IssuesOnScheduleAndStampsCompletions) {
  // A fake server: op 0 takes 60 ms, the rest finish at once. Op 0 is due
  // first; the others keep their own schedule and are stamped by other
  // collectors when they finish, not after op 0.
  const Clock::time_point start = Clock::now();
  const std::vector<OpTiming> ops = RunOpenLoop(
      6, /*rate=*/100, /*collectors=*/3, start,
      [&](size_t i) { return i != 4; },  // Op 4 is refused.
      [&](size_t i) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(60));
        return true;
      });
  ASSERT_EQ(ops.size(), 6u);
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_DOUBLE_EQ(ops[i].due, i * 0.01);
    EXPECT_GE(ops[i].sent, ops[i].due);
  }
  EXPECT_FALSE(ops[4].ok);
  EXPECT_TRUE(ops[1].ok);
  EXPECT_LT(ops[1].done, ops[0].done);  // Not held behind the slow op 0.
  EXPECT_GE(ops[0].done, 0.06);
}

TEST(BacklogAfterRetrains, CountsTheBatchesStartedLateBehindEachRetrain) {
  // Batches every 0.25 s, a retrain batch given two periods (0.5 s).
  // Retrain 1 (due 0.25) ends at 0.60: batch 2, due 0.75, starts on time.
  // Retrain 3 (due 1.0) ends at 1.55, after batch 4 was due (1.5); batch 4
  // ends at 1.80, after batch 5 was due (1.75); batch 6 is on time.
  // Batch 7 is late too, but behind an update, not a retrain.
  const std::vector<BatchSlot> batches = {
      {0.00, 0.05, false}, {0.25, 0.60, true},  {0.75, 0.80, false},
      {1.00, 1.55, true},  {1.50, 1.80, false}, {1.75, 1.85, false},
      {2.00, 2.30, false}, {2.25, 2.35, false}, {2.50, 2.55, true}};
  const std::vector<size_t> late = BacklogAfterRetrains(batches);
  ASSERT_EQ(late.size(), 3u);
  EXPECT_EQ(late[0], 0u);
  EXPECT_EQ(late[1], 2u);
  EXPECT_EQ(late[2], 0u);  // The last batch: nothing after it.
}

TEST(SpanStats, SelfTimeSubtractsTheChildrenUnion) {
  // Parent 0..10 with children 1..4 and 3..6 (overlapping) and 8..12
  // (overhanging): covered = [1, 6] + [8, 10] = 7, self = 3.
  const std::vector<Span> spans = {
      {"batch", 0, 10, -1, 0, 0}, {"step", 1, 4, 0, 0, 0},
      {"step", 3, 6, 0, 0, 0},    {"swap", 8, 12, 0, 0, 0},
      {"batch", 20, 21, -1, 1, 0}};
  const auto stats = ComputeSpanStats(spans);
  EXPECT_EQ(stats.at("batch").count, 2u);
  EXPECT_NEAR(stats.at("batch").total_ms, 11e3, 1e-6);
  EXPECT_NEAR(stats.at("batch").self_ms, 3e3 + 1e3, 1e-6);
  EXPECT_NEAR(stats.at("step").self_ms, 6e3, 1e-6);
}

}  // namespace
}  // namespace e2e
