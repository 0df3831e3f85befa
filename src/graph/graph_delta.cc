#include "graph/graph_delta.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"
#include "graph/graph_view.h"

namespace privim {
namespace {

// lower_bound over the (id, weight) pairs of Row::added by id.
auto AddedLowerBound(std::vector<std::pair<NodeId, float>>& added,
                     NodeId id) {
  return std::lower_bound(
      added.begin(), added.end(), id,
      [](const std::pair<NodeId, float>& e, NodeId v) { return e.first < v; });
}

bool AddedContains(const std::vector<std::pair<NodeId, float>>& added,
                   NodeId id) {
  auto it = std::lower_bound(
      added.begin(), added.end(), id,
      [](const std::pair<NodeId, float>& e, NodeId v) { return e.first < v; });
  return it != added.end() && it->first == id;
}

bool SortedContains(const std::vector<NodeId>& ids, NodeId id) {
  return std::binary_search(ids.begin(), ids.end(), id);
}

}  // namespace

GraphDelta::GraphDelta(const Graph& base) : base_(&base) {
  PRIVIM_CHECK(base.has_in_csr())
      << "GraphDelta requires the base in-CSR (RemoveNode and in-edge "
         "merges scan in-rows); call Graph::EnsureInCsr() first";
}

Status GraphDelta::ValidateEndpoints(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) {
    return Status::OutOfRange(StrFormat(
        "edge (%u,%u) out of range for %zu nodes", u, v, num_nodes()));
  }
  if (u == v) {
    return Status::InvalidArgument(StrFormat("self-loop at node %u", u));
  }
  return Status::OK();
}

bool GraphDelta::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  if (const Row* row = OutRow(u)) {
    if (AddedContains(row->added, v)) return true;
    if (SortedContains(row->removed, v)) return false;
  }
  return u < base_->num_nodes() && base_->HasEdge(u, v);
}

Status GraphDelta::AddEdge(NodeId u, NodeId v, float weight) {
  PRIVIM_RETURN_NOT_OK(ValidateEndpoints(u, v));
  if (!(weight >= 0.0f && weight <= 1.0f)) {  // negated to reject NaN
    return Status::InvalidArgument(StrFormat(
        "influence probability %f outside [0,1]",
        static_cast<double>(weight)));
  }
  if (HasEdge(u, v)) {
    return Status::AlreadyExists(
        StrFormat("arc %u -> %u already present", u, v));
  }
  // Not visible, so the added vectors cannot contain it (invariant) — a
  // plain sorted insert maintains both the order and the disjointness. If
  // the arc is a removed base arc, it stays in `removed` (the base copy
  // remains masked; the overlay copy carries the new weight).
  {
    Row& row = out_[u];
    row.added.insert(AddedLowerBound(row.added, v), {v, weight});
  }
  {
    Row& row = in_[v];
    row.added.insert(AddedLowerBound(row.added, u), {u, weight});
  }
  ++added_arcs_;
  ++version_;
  return Status::OK();
}

Status GraphDelta::RemoveEdge(NodeId u, NodeId v) {
  PRIVIM_RETURN_NOT_OK(ValidateEndpoints(u, v));
  if (!HasEdge(u, v)) {
    return Status::NotFound(StrFormat("arc %u -> %u not present", u, v));
  }
  // Visible either through the overlay (erase the added pair) or through
  // the base (mask it via `removed`).
  auto out_it = out_.find(u);
  const bool in_overlay =
      out_it != out_.end() && AddedContains(out_it->second.added, v);
  if (in_overlay) {
    Row& out_row = out_it->second;
    out_row.added.erase(AddedLowerBound(out_row.added, v));
    Row& in_row = in_[v];
    in_row.added.erase(AddedLowerBound(in_row.added, u));
    --added_arcs_;
    PruneIfEmpty(out_, u);
    PruneIfEmpty(in_, v);
  } else {
    Row& orow = out_[u];
    orow.removed.insert(
        std::lower_bound(orow.removed.begin(), orow.removed.end(), v), v);
    Row& irow = in_[v];
    irow.removed.insert(
        std::lower_bound(irow.removed.begin(), irow.removed.end(), u), u);
    ++removed_arcs_;
  }
  ++version_;
  return Status::OK();
}

Result<NodeId> GraphDelta::AddNode() {
  PRIVIM_RETURN_NOT_OK(ValidateNodeCount(num_nodes() + 1));
  const NodeId id = static_cast<NodeId>(num_nodes());
  ++added_nodes_;
  ++version_;
  return id;
}

Status GraphDelta::RemoveNode(NodeId u) {
  if (u >= num_nodes()) {
    return Status::OutOfRange(
        StrFormat("node %u out of range for %zu nodes", u, num_nodes()));
  }
  // Collect first, then remove: mutating the overlay mid-merge would
  // invalidate the row pointers the merge walks. Self-loops cannot exist,
  // so the two lists never name the same arc twice.
  const GraphView view(*base_, this);
  std::vector<NodeId> out_nbrs;
  std::vector<NodeId> in_nbrs;
  view.ForEachOutEdge(u, [&out_nbrs](NodeId v, float) {
    out_nbrs.push_back(v);
  });
  view.ForEachInEdge(u, [&in_nbrs](NodeId s, float) {
    in_nbrs.push_back(s);
  });
  for (NodeId v : out_nbrs) PRIVIM_RETURN_NOT_OK(RemoveEdge(u, v));
  for (NodeId s : in_nbrs) PRIVIM_RETURN_NOT_OK(RemoveEdge(s, u));
  ++version_;
  return Status::OK();
}

std::vector<NodeId> GraphDelta::SortedIds(const RowMap& rows) {
  std::vector<NodeId> ids;
  ids.reserve(rows.size());
  for (const auto& [u, row] : rows) ids.push_back(u);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void GraphDelta::PruneIfEmpty(RowMap& rows, NodeId id) {
  auto it = rows.find(id);
  if (it != rows.end() && it->second.added.empty() &&
      it->second.removed.empty()) {
    rows.erase(it);
  }
}

Status GraphDelta::SpliceDirection(bool out_dir, uint64_t narrow_limit,
                                   Graph& g) const {
  const Graph& base = *base_;
  const OffsetArray& base_offsets =
      out_dir ? base.out_offsets_ : base.in_offsets_;
  const ArcStorage& base_arcs = out_dir ? base.out_ : base.in_;
  const RowMap& rows = out_dir ? out_ : in_;
  const std::vector<NodeId> touched = SortedIds(rows);
  const size_t n = num_nodes();
  const size_t base_n = base.num_nodes();
  // End of base row u - 1 in the base arc arrays; rows past the base
  // (added nodes) are empty there.
  const auto base_end = [&base_offsets, base_n](size_t u) -> uint64_t {
    return base_n == 0 ? 0 : base_offsets[std::min(u, base_n)];
  };

  // Offsets: each row ends where its base row ends, shifted by the net
  // growth of the touched rows up to and including it.
  std::vector<uint64_t> offsets(n + 1);
  int64_t shift = 0;
  size_t t = 0;
  for (size_t u = 0; u < n; ++u) {
    if (t < touched.size() && touched[t] == u) {
      const Row& row = rows.find(touched[t])->second;
      shift += static_cast<int64_t>(row.added.size()) -
               static_cast<int64_t>(row.removed.size());
      ++t;
    }
    offsets[u + 1] =
        static_cast<uint64_t>(static_cast<int64_t>(base_end(u + 1)) + shift);
  }

  ArcStorage& arcs = out_dir ? g.out_ : g.in_;
  arcs.Allocate(offsets[n]);
  // Rows [first, last) are untouched base rows: one contiguous run in
  // both the base arrays and the new ones.
  const auto copy_run = [&](size_t first, size_t last) {
    const uint64_t src = base_end(first);
    const uint64_t len = base_end(last) - src;
    if (len == 0) return;
    std::memcpy(arcs.ids() + offsets[first], base_arcs.ids() + src,
                static_cast<size_t>(len) * sizeof(NodeId));
    std::memcpy(arcs.weights() + offsets[first], base_arcs.weights() + src,
                static_cast<size_t>(len) * sizeof(float));
  };
  const GraphView view(base, this);
  size_t run_begin = 0;
  for (NodeId u : touched) {
    copy_run(run_begin, u);
    uint64_t pos = offsets[u];
    const uint64_t end = offsets[static_cast<size_t>(u) + 1];
    // The bound check keeps a broken overlay invariant (a removal that
    // is not in the base row) from writing past the row.
    const auto place = [&arcs, &pos, end](NodeId v, float w) -> Status {
      if (pos == end) return Status::Internal("overlay row overflows");
      arcs.ids()[pos] = v;
      arcs.weights()[pos] = w;
      ++pos;
      return Status::OK();
    };
    PRIVIM_RETURN_NOT_OK(out_dir ? view.ForEachOutEdge(u, place)
                                 : view.ForEachInEdge(u, place));
    if (pos != end) {
      return Status::Internal(StrFormat(
          "GraphDelta %s-row %u holds %llu arcs, its degree says %llu",
          out_dir ? "out" : "in", u,
          static_cast<unsigned long long>(pos - offsets[u]),
          static_cast<unsigned long long>(end - offsets[u])));
    }
    run_begin = static_cast<size_t>(u) + 1;
  }
  copy_run(run_begin, n);
  (out_dir ? g.out_offsets_ : g.in_offsets_)
      .Adopt(std::move(offsets), narrow_limit);
  return Status::OK();
}

Result<Graph> GraphDelta::Compact(const GraphBuildOptions& options) const {
  Graph g;
  g.num_nodes_ = num_nodes();
  PRIVIM_RETURN_NOT_OK(
      SpliceDirection(/*out_dir=*/true, options.narrow_offset_limit, g));
  PRIVIM_RETURN_NOT_OK(
      SpliceDirection(/*out_dir=*/false, options.narrow_offset_limit, g));
  // The in-CSR was built eagerly, as GraphBuilder's build_in_csr does.
  g.has_in_csr_ = true;
  g.in_csr_builds_ = 1;
  return g;
}

Status GraphDelta::ResetBase(const Graph& new_base) {
  if (!new_base.has_in_csr()) {
    return Status::FailedPrecondition(
        "GraphDelta::ResetBase requires the new base's in-CSR");
  }
  if (new_base.num_nodes() < num_nodes()) {
    return Status::InvalidArgument(StrFormat(
        "new base has %zu nodes, delta covers %zu",
        new_base.num_nodes(), num_nodes()));
  }
  base_ = &new_base;
  out_.clear();
  in_.clear();
  added_nodes_ = 0;
  added_arcs_ = 0;
  removed_arcs_ = 0;
  ++version_;
  return Status::OK();
}

}  // namespace privim
