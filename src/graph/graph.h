#ifndef PRIVIM_GRAPH_GRAPH_H_
#define PRIVIM_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"

namespace privim {

/// Node identifier. Graphs are indexed densely in [0, num_nodes).
using NodeId = uint32_t;

/// Edge (arc) index: indexes into the CSR arc arrays. 64-bit so graphs with
/// more than 2^32 arcs stay representable; the *stored* offset arrays narrow
/// to 32 bits whenever the arc count fits (see OffsetArray), which is every
/// graph below ~4.3e9 arcs — Friendster-class included, per partition.
using EdgeId = uint64_t;

/// Largest node count addressable with 32-bit NodeIds: ids live in
/// [0, num_nodes), so num_nodes may be as large as 2^32 exactly.
inline constexpr uint64_t kMaxNodeCount = uint64_t{1} << 32;

/// InvalidArgument when `num_nodes` exceeds what NodeId can address.
/// Call before sizing any per-node structure from an untrusted count —
/// the silent-wrap alternative produces graphs whose high nodes are
/// unreachable (the truncation seam this guards, see docs/scale.md).
Status ValidateNodeCount(uint64_t num_nodes);

/// A weighted directed edge. `weight` is the IC influence probability
/// w_uv in [0, 1] of the edge (src -> dst).
struct Edge {
  NodeId src = 0;
  NodeId dst = 0;
  float weight = 1.0f;

  bool operator==(const Edge&) const = default;
};

/// CSR offset table with width-adaptive storage: logically an array of
/// EdgeId (64-bit) offsets, physically 32-bit entries whenever the total
/// arc count fits — which halves the dominant per-node metadata cost
/// (8 bytes -> 4 bytes per node per direction) on every graph this repo
/// can actually hold in RAM. The width is chosen once at build time; reads
/// pay one well-predicted branch.
class OffsetArray {
 public:
  EdgeId operator[](size_t i) const {
    return narrow_.empty() ? wide_[i] : static_cast<EdgeId>(narrow_[i]);
  }
  /// Number of entries (num_nodes + 1 for a built table, 0 when unset).
  size_t size() const {
    return narrow_.empty() ? wide_.size() : narrow_.size();
  }
  bool is_narrow() const { return !narrow_.empty(); }
  size_t MemoryBytes() const {
    return narrow_.capacity() * sizeof(uint32_t) +
           wide_.capacity() * sizeof(uint64_t);
  }

  /// Installs a finished 64-bit offset table, narrowing the storage to
  /// 32-bit when the last entry (the total arc count) is <= `narrow_limit`.
  /// `narrow_limit` is a build-time test hook; production callers pass
  /// UINT32_MAX.
  void Adopt(std::vector<uint64_t> offsets, uint64_t narrow_limit);

  void Clear() {
    narrow_.clear();
    narrow_.shrink_to_fit();
    wide_.clear();
    wide_.shrink_to_fit();
  }

  /// Address of the backing storage (identity fingerprinting only).
  const void* data() const {
    return narrow_.empty() ? static_cast<const void*>(wide_.data())
                           : static_cast<const void*>(narrow_.data());
  }

 private:
  std::vector<uint32_t> narrow_;
  std::vector<uint64_t> wide_;
};

/// One adjacency direction's arc payload: neighbor ids and weights in a
/// single contiguous allocation (ids block, then weights block, each
/// 64-byte aligned). One allocation instead of two keeps the blocks
/// adjacent in memory for scans that read both, and halves allocator
/// round-trips on billion-element arrays.
class ArcStorage {
 public:
  ArcStorage() = default;
  ArcStorage(const ArcStorage& other) { *this = other; }
  ArcStorage& operator=(const ArcStorage& other);
  ArcStorage(ArcStorage&&) noexcept = default;
  ArcStorage& operator=(ArcStorage&&) noexcept = default;

  /// Allocates capacity for `count` arcs. Contents are uninitialized.
  void Allocate(EdgeId count);

  /// Logically shrinks to `count` arcs (deduplication compacts rows in
  /// place, so the tail is garbage). Reallocates to the exact size when
  /// the slack exceeds 1/8 of the buffer — duplicate-heavy inputs should
  /// not pin dead capacity for the graph's lifetime.
  void ShrinkCount(EdgeId count);

  NodeId* ids() { return ids_; }
  const NodeId* ids() const { return ids_; }
  float* weights() { return weights_; }
  const float* weights() const { return weights_; }

  EdgeId size() const { return count_; }
  size_t MemoryBytes() const { return alloc_bytes_; }

 private:
  void AllocateExact(EdgeId count);

  std::unique_ptr<std::byte[]> data_;
  NodeId* ids_ = nullptr;
  float* weights_ = nullptr;
  EdgeId count_ = 0;
  EdgeId capacity_ = 0;
  size_t alloc_bytes_ = 0;
};

/// Immutable directed weighted graph in CSR form. The out-adjacency is
/// always present; the in-adjacency is optional at build time (several hot
/// paths — RWR walks, IC cascades, unit-weight spread — only ever scan
/// out-edges) and can be constructed lazily with EnsureInCsr().
///
/// Undirected input graphs are represented as two directed arcs per edge
/// (the paper treats undirected graphs as directed ones, Section II-A).
/// Build instances through `GraphBuilder`.
///
/// Memory model (docs/scale.md): per arc, 4 bytes neighbor id + 4 bytes
/// weight per stored direction; per node, one offset entry per direction
/// (4 bytes below 2^32 arcs, 8 above). A 10^7-node / 10^8-arc graph is
/// ~800 MB out-only, ~1.6 GB with both directions.
class Graph {
 public:
  Graph() = default;

  size_t num_nodes() const { return num_nodes_; }
  /// Number of directed arcs.
  EdgeId num_edges() const { return out_.size(); }

  /// Out-neighbors of u (targets of arcs u -> v).
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    const EdgeId begin = out_offsets_[u];
    return {out_.ids() + begin,
            static_cast<size_t>(out_offsets_[u + 1] - begin)};
  }
  /// Weights aligned with OutNeighbors(u).
  std::span<const float> OutWeights(NodeId u) const {
    const EdgeId begin = out_offsets_[u];
    return {out_.weights() + begin,
            static_cast<size_t>(out_offsets_[u + 1] - begin)};
  }
  /// In-neighbors of v (sources of arcs u -> v). Requires has_in_csr().
  std::span<const NodeId> InNeighbors(NodeId v) const {
    PRIVIM_CHECK(has_in_csr_) << "graph built without in-CSR; call "
                                 "EnsureInCsr() before in-edge scans";
    const EdgeId begin = in_offsets_[v];
    return {in_.ids() + begin,
            static_cast<size_t>(in_offsets_[v + 1] - begin)};
  }
  /// Weights aligned with InNeighbors(v). Requires has_in_csr().
  std::span<const float> InWeights(NodeId v) const {
    PRIVIM_CHECK(has_in_csr_) << "graph built without in-CSR; call "
                                 "EnsureInCsr() before in-edge scans";
    const EdgeId begin = in_offsets_[v];
    return {in_.weights() + begin,
            static_cast<size_t>(in_offsets_[v + 1] - begin)};
  }

  size_t OutDegree(NodeId u) const {
    return static_cast<size_t>(out_offsets_[u + 1] - out_offsets_[u]);
  }
  size_t InDegree(NodeId v) const {
    PRIVIM_CHECK(has_in_csr_) << "graph built without in-CSR; call "
                                 "EnsureInCsr() before in-degree reads";
    return static_cast<size_t>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  /// True when the in-adjacency arrays are materialized. Graphs built with
  /// GraphBuildOptions::build_in_csr = false skip them (saving half the
  /// arc storage) until EnsureInCsr() is called.
  bool has_in_csr() const { return has_in_csr_; }

  /// Builds the in-CSR from the out-CSR if absent (counting sort, O(V+E),
  /// no edge-list materialization). NOT thread-safe: call before sharing
  /// the graph across threads. The result is bit-identical to building
  /// with in-CSR up front.
  ///
  /// Idempotent by contract: a second call on a graph that already has its
  /// in-CSR is a no-op — it must NOT re-run the counting sort (callers like
  /// Pipeline::Build and GraphDelta's constructor call this defensively on
  /// graphs that may already carry the in-adjacency). The `in_csr_builds()`
  /// counter exists so tests can assert the no-op, not just observe
  /// unchanged contents.
  Status EnsureInCsr();

  /// Number of times the in-CSR counting sort has actually run on this
  /// graph (0 for out-only graphs, 1 after the first EnsureInCsr() or an
  /// eager build_in_csr build). Diagnostic for the EnsureInCsr idempotence
  /// contract; copied with the graph.
  size_t in_csr_builds() const { return in_csr_builds_; }

  /// Average total (in+out) degree over nodes; for a graph built from an
  /// undirected edge list this matches the usual undirected average degree.
  double AverageDegree() const;

  /// Maximum in-degree over all nodes (0 for the empty graph).
  /// Requires has_in_csr().
  size_t MaxInDegree() const;

  /// Visits all arcs in CSR order as (src, dst, weight) without
  /// materializing an edge list. `fn` may return void, or Status to stop
  /// early on error. This is the scale-safe form of Edges(): O(1) extra
  /// memory on graphs whose Edge vector would not fit.
  template <typename Fn>
  Status ForEachEdge(Fn&& fn) const {
    for (NodeId u = 0; u < num_nodes_; ++u) {
      const EdgeId begin = out_offsets_[u];
      const EdgeId end = out_offsets_[u + 1];
      for (EdgeId k = begin; k < end; ++k) {
        if constexpr (std::is_void_v<std::invoke_result_t<Fn&, NodeId,
                                                          NodeId, float>>) {
          fn(u, out_.ids()[k], out_.weights()[k]);
        } else {
          PRIVIM_RETURN_NOT_OK(fn(u, out_.ids()[k], out_.weights()[k]));
        }
      }
    }
    return Status::OK();
  }

  /// Enumerates all arcs in CSR order. Materializes O(E) memory — prefer
  /// ForEachEdge on large graphs.
  std::vector<Edge> Edges() const;

  /// True if the arc u -> v exists. O(log out-degree of u): binary search
  /// over u's CSR row, which GraphBuilder::Build() leaves sorted and
  /// duplicate-free.
  bool HasEdge(NodeId u, NodeId v) const;

  /// Cheap identity fingerprint for caches keyed on "the same Graph object
  /// as last time" (the samplers' r-hop-ball caches): mixes the node/edge
  /// counts with the addresses of the CSR storage, so two simultaneously
  /// live graphs can never collide and copies count as distinct. Not a
  /// content hash — a graph destroyed and replaced by an identical twin at
  /// the same addresses would match, which is harmless for caches of pure
  /// functions of the content. (EnsureInCsr changes the fingerprint, which
  /// conservatively invalidates such caches.)
  uint64_t IdentityFingerprint() const;

  /// Bytes held by the CSR arrays (offsets + arcs, both directions).
  /// The quantity BENCH_scale.json's peak-RSS ratios are measured against.
  size_t MemoryFootprintBytes() const;

 private:
  friend class GraphBuilder;
  /// GraphDelta::Compact splices base rows straight into a new CSR.
  friend class GraphDelta;

  /// Counting-sort construction of the in-CSR from the out-CSR.
  void BuildInCsrFromOut(uint64_t narrow_limit);

  size_t num_nodes_ = 0;
  OffsetArray out_offsets_;
  ArcStorage out_;
  OffsetArray in_offsets_;
  ArcStorage in_;
  // A default (empty) graph trivially has its (empty) in-CSR.
  bool has_in_csr_ = true;
  size_t in_csr_builds_ = 0;
};

/// Options for GraphBuilder::Build.
struct GraphBuildOptions {
  /// Skip materializing the in-adjacency (half the arc storage). Paths
  /// that only scan out-edges — RWR walks, IC cascades, spread evaluation
  /// — never notice; call Graph::EnsureInCsr() before in-edge scans.
  bool build_in_csr = true;
  /// Arc-count threshold above which offset arrays store 64-bit entries.
  /// A test hook (forcing the wide path on small graphs); production
  /// callers keep the default.
  uint64_t narrow_offset_limit = 0xFFFFFFFFull;
};

class GraphBuilder;

/// Edge receiver handed to streaming edge producers (EdgeStream). The same
/// validation as GraphBuilder::AddEdge, but edges flow straight into the
/// CSR construction — no Edge vector is ever materialized.
class EdgeSink {
 public:
  /// Adds the directed arc u -> v. Fails on out-of-range ids, self-loops,
  /// or weights outside [0, 1].
  Status Add(NodeId u, NodeId v, float weight = 1.0f);

  /// Adds both arcs u <-> v.
  Status AddUndirected(NodeId u, NodeId v, float weight = 1.0f);

 private:
  friend class GraphBuilder;
  enum class Mode { kCount, kPlace };
  EdgeSink(GraphBuilder* builder, Mode mode)
      : builder_(builder), mode_(mode) {}

  GraphBuilder* builder_;
  Mode mode_;
};

/// A replayable edge producer: Build() invokes it exactly twice (a counting
/// pass, then a placement pass) and the two invocations MUST emit the same
/// edge sequence. Producers that draw randomness must therefore restart
/// from a saved RNG state on each invocation (see ReplayableStream in
/// generators.h for the snapshot-and-replay idiom). Build() cross-checks
/// per-node emission counts between the passes and fails with Internal on
/// mismatch instead of writing out of bounds — the memory-safety net; a
/// replay that diverges only in destinations while keeping every per-node
/// count is semantically wrong but undetectable without buffering, which
/// is exactly what streaming exists to avoid.
using EdgeStream = std::function<Status(EdgeSink&)>;

/// Accumulates edges and finalizes them into an immutable `Graph`.
///
/// Two input modes, freely combinable:
///  - AddEdge/AddUndirectedEdge buffer individual edges (convenient for
///    small graphs and tests);
///  - AddEdgeStream registers a replayable producer whose edges are
///    streamed through a two-pass counting-sort build that never holds a
///    materialized edge vector — the million-node path, with peak memory
///    within ~1.1x of the final CSR footprint (docs/scale.md).
class GraphBuilder {
 public:
  /// `num_nodes` fixes the node-id space [0, num_nodes). Counts beyond
  /// kMaxNodeCount are rejected by Build() (NodeId cannot address them).
  explicit GraphBuilder(size_t num_nodes);
  ~GraphBuilder();

  /// Adds the directed arc u -> v with weight w. Fails on out-of-range ids,
  /// self-loops, or weights outside [0, 1].
  Status AddEdge(NodeId u, NodeId v, float weight = 1.0f);

  /// Adds both arcs u <-> v.
  Status AddUndirectedEdge(NodeId u, NodeId v, float weight = 1.0f);

  /// Registers a replayable edge producer (see EdgeStream). Streams run
  /// after buffered edges, in registration order.
  Status AddEdgeStream(EdgeStream stream);

  size_t num_pending_edges() const { return edges_.size(); }

  /// Builds CSR adjacency via a two-pass counting sort: pass 1 counts
  /// per-node degrees (buffered edges + every registered stream), pass 2
  /// scatters arcs directly into their final rows, then each row is sorted
  /// and deduplicated in place (duplicate arcs keep the first-sorting
  /// weight). The builder is left empty.
  Result<Graph> Build() { return Build(GraphBuildOptions{}); }
  Result<Graph> Build(const GraphBuildOptions& options);

 private:
  friend class EdgeSink;

  Status ValidateEdge(NodeId u, NodeId v, float weight) const;
  /// EdgeSink backend: pass-1 degree count / pass-2 placement of one arc.
  Status CountArc(NodeId u);
  Status PlaceArc(NodeId u, NodeId v, float weight);

  size_t num_nodes_;
  std::vector<Edge> edges_;
  std::vector<EdgeStream> streams_;

  // Build-phase state (live only inside Build()).
  std::vector<uint64_t> offsets_;
  std::vector<uint64_t> cursors_;
  Graph* target_ = nullptr;
};

}  // namespace privim

#endif  // PRIVIM_GRAPH_GRAPH_H_
