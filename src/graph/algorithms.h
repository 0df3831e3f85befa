#ifndef PRIVIM_GRAPH_ALGORITHMS_H_
#define PRIVIM_GRAPH_ALGORITHMS_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "graph/graph.h"

namespace privim {

/// Nodes within `r` hops of `start` following *out*-edges, including `start`
/// itself (hop 0). Order: BFS discovery order.
std::vector<NodeId> RHopNeighborhood(const Graph& g, NodeId start, int r);

/// Distance (in hops, following out-edges) from `start` to every node;
/// -1 for unreachable nodes.
std::vector<int> BfsDistances(const Graph& g, NodeId start);

/// Weakly connected components; returns a component id per node and the
/// number of components.
struct ComponentLabels {
  std::vector<uint32_t> label;
  uint32_t num_components = 0;
};
ComponentLabels WeaklyConnectedComponents(const Graph& g);

/// Projects `g` onto a θ-bounded graph G^θ by randomly removing in-edges of
/// nodes whose in-degree exceeds `theta` (Section III-B). Out-edges lose the
/// mirrored arcs as well when the graph is stored as directed arcs.
Result<Graph> ThetaBoundedProjection(const Graph& g, size_t theta, Rng& rng);

/// Nodes whose in-rows differ between two graphs on the same node set, in
/// ascending order: v is listed when its in-neighbor ids, or their
/// weights compared bit for bit, differ. Exactly the rows
/// RrSketch::Repair must hear about when a sketch of `before` is carried
/// over to `after`. Fails with InvalidArgument when the node counts
/// differ and FailedPrecondition when either graph lacks its in-CSR.
Result<std::vector<NodeId>> ChangedInRows(const Graph& before,
                                          const Graph& after);

/// Global clustering-style statistic: fraction of length-2 out-paths u->v->w
/// that are closed by an arc u->w, estimated exactly for small graphs and by
/// sampling `max_samples` wedges otherwise.
double TransitivityEstimate(const Graph& g, Rng& rng,
                            size_t max_samples = 20000);

}  // namespace privim

#endif  // PRIVIM_GRAPH_ALGORITHMS_H_
