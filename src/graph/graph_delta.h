#ifndef PRIVIM_GRAPH_GRAPH_DELTA_H_
#define PRIVIM_GRAPH_GRAPH_DELTA_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/graph.h"

namespace privim {

/// Mutable overlay on an immutable CSR `Graph`: absorbs edge/node
/// insertions and deletions without touching the base arrays, and
/// compacts back into a fresh CSR by splicing: untouched base rows are
/// copied in runs, touched rows are merged from the overlay, and no edge
/// list is ever materialized, so compaction keeps the 1.2x-of-CSR
/// peak-memory contract of docs/scale.md.
///
/// All reads of the mutated graph go through `GraphView` (graph_view.h),
/// which merges base rows with the overlay in ascending neighbor order —
/// the same order the compacted CSR would present, so RNG draw sequences
/// over view rows are bit-identical to draws over the compacted graph
/// (the property the incremental RR-sketch repair relies on;
/// docs/streaming.md).
///
/// INTERNAL: the row representation below (`Row`, the touched-row maps)
/// is an implementation detail exposed only so GraphView can merge
/// without an indirection per arc. Out-of-tree code should hold a
/// GraphDelta only to mutate it and hand it to GraphView / the stream
/// pipeline (docs/api.md).
///
/// Not thread-safe for mutation. Concurrent *reads* (through GraphView)
/// are safe once mutation stops, same as Graph.
class GraphDelta {
 public:
  /// One overlaid adjacency row. Invariants (checked in debug builds,
  /// relied on by GraphView's merge):
  ///  - `added` is sorted by neighbor id, duplicate-free, and disjoint
  ///    from the *visible* base row (base row minus `removed`);
  ///  - `removed` is sorted, duplicate-free, and a subset of the base row.
  /// Re-adding a previously removed base arc therefore keeps the id in
  /// `removed` AND records the (id, new weight) pair in `added` — which is
  /// what lets a re-add carry a different weight than the base copy.
  struct Row {
    std::vector<std::pair<NodeId, float>> added;
    std::vector<NodeId> removed;
  };

  /// The base must have its in-CSR (RemoveNode and GraphView's in-edge
  /// merges scan in-rows). The delta borrows the base; the caller keeps it
  /// alive and unmodified for the delta's lifetime (or until ResetBase).
  explicit GraphDelta(const Graph& base);

  /// Adds the visible arc u -> v. Same validation as GraphBuilder::AddEdge
  /// (ids in range of the *current* node count, no self-loops, weight in
  /// [0, 1]) plus AlreadyExists when the arc is already visible.
  Status AddEdge(NodeId u, NodeId v, float weight = 1.0f);

  /// Removes the visible arc u -> v; NotFound when it is not visible.
  Status RemoveEdge(NodeId u, NodeId v);

  /// Appends a new isolated node and returns its id (== the node count
  /// before the call). Fails when the grown count exceeds kMaxNodeCount.
  Result<NodeId> AddNode();

  /// Removes every visible arc incident to u (both directions). The id
  /// itself stays valid-but-isolated: CSR ids are dense, so physically
  /// retiring an id would renumber every structure keyed on NodeId
  /// (features, sketches, seed sets). Isolation is the standard dynamic-
  /// graph compromise and is what compaction preserves (docs/streaming.md).
  Status RemoveNode(NodeId u);

  /// Current node count (base nodes + nodes added through AddNode).
  size_t num_nodes() const { return base_->num_nodes() + added_nodes_; }
  /// Current visible arc count.
  EdgeId num_edges() const {
    return base_->num_edges() + added_arcs_ - removed_arcs_;
  }
  const Graph& base() const { return *base_; }

  /// True if u -> v is visible (base arc not removed, or overlay arc).
  bool HasEdge(NodeId u, NodeId v) const;

  /// Overlay row for u's out-edges / v's in-edges; nullptr when the row is
  /// untouched (the common case — GraphView's fast path).
  const Row* OutRow(NodeId u) const { return FindRow(out_, u); }
  const Row* InRow(NodeId v) const { return FindRow(in_, v); }

  bool OutRowTouched(NodeId u) const { return OutRow(u) != nullptr; }
  bool InRowTouched(NodeId v) const { return InRow(v) != nullptr; }

  /// Arcs added / removed relative to the base (overlay sizes, not
  /// event counts: add-then-remove of the same arc nets out to zero).
  EdgeId added_arcs() const { return added_arcs_; }
  EdgeId removed_arcs() const { return removed_arcs_; }
  size_t added_nodes() const { return added_nodes_; }
  bool empty() const {
    return added_arcs_ == 0 && removed_arcs_ == 0 && added_nodes_ == 0;
  }

  /// Monotone mutation counter: bumps on every successful AddEdge /
  /// RemoveEdge / AddNode / RemoveNode and on ResetBase. GraphView mixes it
  /// into its fingerprint so caches keyed on the view invalidate whenever
  /// the overlay changes.
  uint64_t version() const { return version_; }

  /// Visits overlay arcs in deterministic (ascending u, then ascending v)
  /// order — the order the stream checkpoint serializes them in. `fn` is
  /// fn(u, v, weight) for added arcs, fn(u, v) for removed ones.
  template <typename Fn>
  void ForEachAddedEdge(Fn&& fn) const {
    for (NodeId u : SortedIds(out_)) {
      for (const auto& [v, w] : out_.at(u).added) fn(u, v, w);
    }
  }
  template <typename Fn>
  void ForEachRemovedEdge(Fn&& fn) const {
    for (NodeId u : SortedIds(out_)) {
      for (NodeId v : out_.at(u).removed) fn(u, v);
    }
  }

  /// Builds the merged graph (base + overlay) as a fresh CSR; the overlay
  /// itself is left untouched. Both directions are spliced: row offsets
  /// are the base's, shifted by the net growth of the touched rows before
  /// them; runs of untouched base rows are copied with memcpy; touched
  /// rows are written by GraphView's merge, whose order is the CSR's. The
  /// result equals a GraphBuilder::AddEdgeStream build of the view bit
  /// for bit (arcs, weights, offset width), carries its in-CSR (the
  /// streaming pipeline's samplers need it immediately; in_csr_builds()
  /// reads 1, as after an eager build), and costs O(nodes + arcs copied)
  /// with no sort. `options.build_in_csr` is ignored.
  Result<Graph> Compact() const { return Compact(GraphBuildOptions{}); }
  Result<Graph> Compact(const GraphBuildOptions& options) const;

  /// Clears the overlay and points the delta at `new_base` — the handoff
  /// after compaction. `new_base` must have its in-CSR and at least as
  /// many nodes as the delta currently covers.
  Status ResetBase(const Graph& new_base);

 private:
  using RowMap = std::unordered_map<NodeId, Row>;

  static const Row* FindRow(const RowMap& rows, NodeId id) {
    auto it = rows.find(id);
    return it == rows.end() ? nullptr : &it->second;
  }

  Status ValidateEndpoints(NodeId u, NodeId v) const;
  /// Touched row ids of `rows` in ascending order (deterministic
  /// iteration over the unordered map).
  static std::vector<NodeId> SortedIds(const RowMap& rows);
  /// Compact's per-direction splice: fills `g`'s out- (`out_dir`) or
  /// in-adjacency from the base's and the overlay's matching rows.
  Status SpliceDirection(bool out_dir, uint64_t narrow_limit, Graph& g) const;

  /// Drops `id`'s map entry if it became empty (keeps the touched-row
  /// predicate exact, which the invalidation pass depends on).
  static void PruneIfEmpty(RowMap& rows, NodeId id);

  const Graph* base_;
  RowMap out_;
  RowMap in_;
  size_t added_nodes_ = 0;
  EdgeId added_arcs_ = 0;
  EdgeId removed_arcs_ = 0;
  uint64_t version_ = 0;
};

}  // namespace privim

#endif  // PRIVIM_GRAPH_GRAPH_DELTA_H_
