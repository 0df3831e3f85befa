// Peak-allocation regression test for the streaming graph build
// (ISSUE 7 satellite: GraphBuilder peak-memory blowup).
//
// The two-pass counting-sort build must construct a CSR graph while never
// holding much more memory than the finished graph itself: the contract is
// peak heap growth <= ~1.2x the final CSR footprint. The old build
// buffered every Edge (16 bytes/arc) next to the CSR it was building
// (~16 bytes/arc both directions) plus sort scratch — a ~1.7-3x peak that
// made 10^8-arc graphs need triple their resident size to build.
//
// Measurement: global operator new/delete replacements (the counting-
// allocator idiom from bench/bench_micro.cc, extended from counting
// allocations to tracking net live bytes via malloc_usable_size). Global
// replacement is binary-wide, so this lives in its own test binary rather
// than graph_test.

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"

// ---- Byte-tracking allocator. ----

namespace {

std::atomic<bool> g_track{false};
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void NoteAlloc(void* p) {
  if (p == nullptr || !g_track.load(std::memory_order_relaxed)) return;
  const int64_t sz = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live =
      g_live_bytes.fetch_add(sz, std::memory_order_relaxed) + sz;
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void NoteFree(void* p) {
  if (p == nullptr || !g_track.load(std::memory_order_relaxed)) return;
  // Blocks allocated before arming push live below zero on free; that only
  // makes the measurement conservative (peak deltas shrink, never grow).
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
}

void* TrackedAlloc(std::size_t size) {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  NoteAlloc(p);
  return p;
}

void* TrackedAllocAligned(std::size_t size, std::size_t align) {
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  NoteAlloc(p);
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return TrackedAlloc(size); }
void* operator new[](std::size_t size) { return TrackedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return TrackedAllocAligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return TrackedAllocAligned(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept {
  NoteFree(p);
  std::free(p);
}
void operator delete[](void* p) noexcept {
  NoteFree(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  NoteFree(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  NoteFree(p);
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  NoteFree(p);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  NoteFree(p);
  std::free(p);
}

namespace privim {
namespace {

struct PeakWindow {
  PeakWindow() {
    g_live_bytes.store(0, std::memory_order_relaxed);
    g_peak_bytes.store(0, std::memory_order_relaxed);
    g_track.store(true, std::memory_order_relaxed);
  }
  /// Peak heap growth inside the window so far, in bytes.
  int64_t PeakDelta() const {
    return g_peak_bytes.load(std::memory_order_relaxed);
  }
  ~PeakWindow() { g_track.store(false, std::memory_order_relaxed); }
};

constexpr size_t kNodes = 200000;
constexpr double kAvgOutDegree = 10.0;

TEST(BuilderMemoryTest, StreamingBuildPeaksWithinFinalFootprint) {
  Rng rng(1234);
  const double p = kAvgOutDegree / static_cast<double>(kNodes - 1);

  int64_t peak = 0;
  Graph g;
  {
    PeakWindow window;
    // The generator streams straight into the two-pass build — no edge
    // list exists at any point.
    Result<Graph> r = ErdosRenyi(kNodes, p, /*directed=*/true, rng);
    peak = window.PeakDelta();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    g = std::move(r).ValueOrDie();
  }

  const double footprint = static_cast<double>(g.MemoryFootprintBytes());
  ASSERT_GT(footprint, 1e6);  // Sanity: the graph is actually large.
  const double ratio = static_cast<double>(peak) / footprint;
  // The contract from ISSUE 7 / docs/scale.md: streaming build peaks
  // within ~1.2x of the final CSR. Transients are the two u64 bookkeeping
  // arrays (16 bytes/node) — on this 2e6-arc graph ~10% of the CSR.
  EXPECT_LE(ratio, 1.2) << "streaming build peaked at " << peak
                        << " bytes for a " << footprint << "-byte graph";
  // And the measurement itself is sane: the build cannot allocate less
  // than the graph it produced.
  EXPECT_GE(ratio, 0.99);
}

TEST(BuilderMemoryTest, StreamingBuildBeatsBufferedBuild) {
  // Same graph through the buffered AddEdge path: the builder's edge
  // vector (16 bytes/arc plus growth doubling) lives next to the CSR
  // during Build(), so its peak must come out strictly worse than the
  // streaming path's.
  Rng gen_rng(1234);
  const double p = kAvgOutDegree / static_cast<double>(kNodes - 1);
  Result<Graph> source = ErdosRenyi(kNodes, p, /*directed=*/true, gen_rng);
  ASSERT_TRUE(source.ok());
  const Graph& src = source.ValueOrDie();

  int64_t streaming_peak = 0;
  {
    PeakWindow window;
    GraphBuilder b(kNodes);
    ASSERT_TRUE(b.AddEdgeStream([&src](EdgeSink& sink) {
                   return src.ForEachEdge(
                       [&sink](NodeId u, NodeId v, float w) {
                         return sink.Add(u, v, w);
                       });
                 })
                    .ok());
    Result<Graph> r = b.Build();
    streaming_peak = window.PeakDelta();
    ASSERT_TRUE(r.ok());
  }

  int64_t buffered_peak = 0;
  {
    PeakWindow window;
    GraphBuilder b(kNodes);
    const Status st = src.ForEachEdge([&b](NodeId u, NodeId v, float w) {
      return b.AddEdge(u, v, w);
    });
    ASSERT_TRUE(st.ok());
    Result<Graph> r = b.Build();
    buffered_peak = window.PeakDelta();
    ASSERT_TRUE(r.ok());
  }

  EXPECT_LT(streaming_peak, buffered_peak)
      << "streaming=" << streaming_peak << " buffered=" << buffered_peak;
  // The contrast that motivates the streaming path: the buffered edge
  // vector (12 bytes/arc, power-of-two capacity) sits next to the CSR
  // during placement and pushes the buffered peak past the 1.2x-of-final
  // contract that the streaming path satisfies (asserted above). Both
  // builds produce the same graph, so src's footprint stands in for it.
  EXPECT_GT(static_cast<double>(buffered_peak),
            1.25 * static_cast<double>(src.MemoryFootprintBytes()));
}

TEST(BuilderMemoryTest, CompactionPeaksWithinFinalFootprint) {
  // GraphDelta::Compact splices base rows into a fresh CSR: besides the
  // graph it returns, it holds only one direction's u64 offset table
  // (and its narrowed copy) at a time.
  Rng rng(4321);
  const double p = kAvgOutDegree / static_cast<double>(kNodes - 1);
  Graph base =
      std::move(ErdosRenyi(kNodes, p, /*directed=*/true, rng)).ValueOrDie();
  ASSERT_TRUE(base.EnsureInCsr().ok());
  GraphDelta delta(base);
  Rng mut(4322);
  for (int i = 0; i < 4000; ++i) {
    const NodeId u = static_cast<NodeId>(mut.UniformInt(kNodes));
    const NodeId v = static_cast<NodeId>(mut.UniformInt(kNodes));
    if (u == v) continue;
    if (i % 2 == 0) {
      (void)delta.AddEdge(u, v, static_cast<float>(mut.Uniform()));
    } else if (base.OutDegree(u) > 0) {
      (void)delta.RemoveEdge(u, base.OutNeighbors(u)[0]);
    }
  }
  ASSERT_TRUE(delta.AddNode().ok());
  ASSERT_GT(delta.removed_arcs(), 0u);

  int64_t peak = 0;
  Graph g;
  {
    PeakWindow window;
    Result<Graph> r = delta.Compact();
    peak = window.PeakDelta();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    g = std::move(r).ValueOrDie();
  }
  const double footprint = static_cast<double>(g.MemoryFootprintBytes());
  const double ratio = static_cast<double>(peak) / footprint;
  EXPECT_LE(ratio, 1.2) << "compaction peaked at " << peak
                        << " bytes for a " << footprint << "-byte graph";
  EXPECT_GE(ratio, 0.99);
}

}  // namespace
}  // namespace privim
