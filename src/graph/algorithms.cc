#include "graph/algorithms.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"

namespace privim {

std::vector<NodeId> RHopNeighborhood(const Graph& g, NodeId start, int r) {
  PRIVIM_CHECK_LT(start, g.num_nodes());
  PRIVIM_CHECK_GE(r, 0);
  std::vector<int> dist(g.num_nodes(), -1);
  std::deque<NodeId> queue;
  std::vector<NodeId> order;
  dist[start] = 0;
  queue.push_back(start);
  order.push_back(start);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (dist[u] == r) continue;
    for (NodeId v : g.OutNeighbors(u)) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
        order.push_back(v);
      }
    }
  }
  return order;
}

std::vector<int> BfsDistances(const Graph& g, NodeId start) {
  PRIVIM_CHECK_LT(start, g.num_nodes());
  std::vector<int> dist(g.num_nodes(), -1);
  std::deque<NodeId> queue;
  dist[start] = 0;
  queue.push_back(start);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.OutNeighbors(u)) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

ComponentLabels WeaklyConnectedComponents(const Graph& g) {
  ComponentLabels out;
  out.label.assign(g.num_nodes(), UINT32_MAX);
  std::deque<NodeId> queue;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (out.label[s] != UINT32_MAX) continue;
    const uint32_t c = out.num_components++;
    out.label[s] = c;
    queue.push_back(s);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (NodeId v : g.OutNeighbors(u)) {
        if (out.label[v] == UINT32_MAX) {
          out.label[v] = c;
          queue.push_back(v);
        }
      }
      for (NodeId v : g.InNeighbors(u)) {
        if (out.label[v] == UINT32_MAX) {
          out.label[v] = c;
          queue.push_back(v);
        }
      }
    }
  }
  return out;
}

Result<Graph> ThetaBoundedProjection(const Graph& g, size_t theta, Rng& rng) {
  if (theta == 0) {
    return Status::InvalidArgument("theta must be positive");
  }
  if (!g.has_in_csr()) {
    return Status::FailedPrecondition(
        "theta-bounded projection scans in-edges; call Graph::EnsureInCsr() "
        "on graphs built without the in-CSR");
  }
  GraphBuilder builder(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto sources = g.InNeighbors(v);
    auto weights = g.InWeights(v);
    if (sources.size() <= theta) {
      for (size_t i = 0; i < sources.size(); ++i) {
        PRIVIM_RETURN_NOT_OK(builder.AddEdge(sources[i], v, weights[i]));
      }
      continue;
    }
    // Keep a uniformly random subset of exactly theta in-edges.
    std::vector<uint32_t> keep = rng.SampleWithoutReplacement(
        static_cast<uint32_t>(sources.size()), static_cast<uint32_t>(theta));
    for (uint32_t idx : keep) {
      PRIVIM_RETURN_NOT_OK(builder.AddEdge(sources[idx], v, weights[idx]));
    }
  }
  return builder.Build();
}

Result<std::vector<NodeId>> ChangedInRows(const Graph& before,
                                          const Graph& after) {
  if (before.num_nodes() != after.num_nodes()) {
    return Status::InvalidArgument(StrFormat(
        "in-row diff needs equal node counts, got %zu and %zu",
        before.num_nodes(), after.num_nodes()));
  }
  if (!before.has_in_csr() || !after.has_in_csr()) {
    return Status::FailedPrecondition(
        "in-row diff reads in-rows; call Graph::EnsureInCsr() on both "
        "graphs first");
  }
  std::vector<NodeId> changed;
  for (NodeId v = 0; v < before.num_nodes(); ++v) {
    const std::span<const NodeId> a = before.InNeighbors(v);
    const std::span<const NodeId> b = after.InNeighbors(v);
    if (a.size() != b.size()) {
      changed.push_back(v);
      continue;
    }
    if (a.empty()) continue;  // memcmp must not see an arc-free graph's null
    const std::span<const float> wa = before.InWeights(v);
    if (std::memcmp(a.data(), b.data(), a.size_bytes()) != 0 ||
        std::memcmp(wa.data(), after.InWeights(v).data(), wa.size_bytes()) !=
            0) {
      changed.push_back(v);
    }
  }
  return changed;
}

double TransitivityEstimate(const Graph& g, Rng& rng, size_t max_samples) {
  // Count wedges u->v->w and how many are closed by u->w.
  size_t wedges = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const size_t in_deg = g.InDegree(v);
    const size_t out_deg = g.OutDegree(v);
    wedges += in_deg * out_deg;
  }
  if (wedges == 0) return 0.0;

  if (wedges <= max_samples) {
    size_t closed = 0;
    size_t proper = 0;  // Wedges with distinct endpoints u != w.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (NodeId u : g.InNeighbors(v)) {
        for (NodeId w : g.OutNeighbors(v)) {
          if (u == w) continue;
          ++proper;
          if (g.HasEdge(u, w)) ++closed;
        }
      }
    }
    if (proper == 0) return 0.0;
    return static_cast<double>(closed) / static_cast<double>(proper);
  }

  // Sample wedges: pick a center v proportional to in_deg*out_deg via
  // rejection on a uniform node then uniform (u, w) pair.
  std::vector<double> weight(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    weight[v] = static_cast<double>(g.InDegree(v)) *
                static_cast<double>(g.OutDegree(v));
  }
  size_t closed = 0;
  size_t taken = 0;
  for (size_t s = 0; s < max_samples; ++s) {
    const size_t v = rng.Discrete(weight);
    if (v >= g.num_nodes()) break;
    auto ins = g.InNeighbors(static_cast<NodeId>(v));
    auto outs = g.OutNeighbors(static_cast<NodeId>(v));
    const NodeId u = ins[rng.UniformInt(ins.size())];
    const NodeId w = outs[rng.UniformInt(outs.size())];
    if (u == w) continue;
    ++taken;
    if (g.HasEdge(u, w)) ++closed;
  }
  if (taken == 0) return 0.0;
  return static_cast<double>(closed) / static_cast<double>(taken);
}

}  // namespace privim
