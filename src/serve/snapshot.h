#ifndef PRIVIM_SERVE_SNAPSHOT_H_
#define PRIVIM_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "nn/gnn.h"
#include "nn/graph_context.h"
#include "tensor/matrix.h"
#include "tensor/plan.h"

namespace privim {

/// The seed ranking of one snapshot: every node's pre-sigmoid seed logit
/// and the node order by (logit desc, id asc), with NaN logits after every
/// number (ties among NaNs, too, break by ascending id). A total order, so
/// the ranking is unique. 12 bytes per node.
struct SeedRanking {
  /// logits[v]: node v's seed logit.
  std::vector<float> logits;
  /// Node ids, best first.
  std::vector<uint32_t> order;
  /// position[v]: index of node v in `order` — comparing two positions
  /// compares the nodes' ranks.
  std::vector<uint32_t> position;
};

/// One immutable, servable version of the model: the loaded GnnModel plus
/// everything inference over the resident graph derives from it — the
/// message-passing GraphContext, the structural feature matrix, the flat
/// parameter snapshot, the compiled seed-logits plan (tensor/plan.h), and
/// the seed ranking that plan produces.
///
/// Snapshots are the unit of hot swap. The Server publishes the current
/// snapshot behind a shared_ptr (RCU style): workers take a reference per
/// batch, queries in flight keep the old version alive after a swap, and
/// the last reference releases it. Everything here is written once and
/// only read afterwards, so concurrent query execution needs no further
/// synchronization.
///
/// The ranking is the one piece written after construction: ranking()
/// computes it on its first call, behind std::call_once, with one forward
/// of the logits plan in a temporary arena and one sort. Concurrent first
/// callers wait for that single computation; every later call reads the
/// stored result. Lazy rather than in FromModel because a snapshot that
/// never answers a top-k query (a stream publishing every batch beside
/// spread-only traffic) then never pays for inference. The model cannot
/// change within a snapshot, so ranking once is exactly as good as ranking
/// per query — and, inference being post-processing of the released
/// parameters, it spends no privacy budget either way.
///
/// A snapshot is compiled against ONE resident graph (the plan embeds the
/// graph's edge structure); `num_nodes()` is validated by the Server at
/// swap time.
///
/// Dynamic graphs: a snapshot may additionally OWN the graph it was
/// compiled against (the graph-owning FromModel overload). That is the
/// unit the streaming pipeline publishes — graph and model swap together,
/// atomically, through Server::SwapGraphAndSnapshot, and the retired
/// graph stays alive exactly as long as in-flight queries still hold the
/// retired snapshot (docs/streaming.md).
class ModelSnapshot {
 public:
  /// Builds a servable snapshot from a loaded model. Fails with
  /// FailedPrecondition when the model's input width does not match the
  /// structural feature dim of `graph` (kNodeFeatureDim). The snapshot
  /// borrows `graph` (owned_graph() stays null); the caller keeps it
  /// alive — the Server's original static-graph contract.
  static Result<std::shared_ptr<const ModelSnapshot>> FromModel(
      std::unique_ptr<GnnModel> model, const Graph& graph);

  /// Graph-owning variant: the snapshot keeps `graph` alive and exposes
  /// it via owned_graph(). Required by Server::SwapGraphAndSnapshot.
  static Result<std::shared_ptr<const ModelSnapshot>> FromModel(
      std::unique_ptr<GnnModel> model, std::shared_ptr<const Graph> graph);

  /// One-call restore-and-compile: LoadModel(path) + FromModel. Error
  /// statuses name `path` and hint at version/artifact mismatches
  /// (nn/serialization.h).
  static Result<std::shared_ptr<const ModelSnapshot>> Load(
      const std::string& path, const Graph& graph);

  /// Process-unique identity, assigned at construction (monotonic from 1).
  /// Responses carry this id, which is what makes every answer
  /// attributable to exactly one snapshot.
  uint64_t id() const { return id_; }

  /// Node count of the graph this snapshot was compiled against.
  size_t num_nodes() const { return features_.rows(); }

  const GnnModel& model() const { return *model_; }

  /// The seed ranking, computed on the first call (see the class comment)
  /// and stored for the snapshot's lifetime. Thread-safe.
  const SeedRanking& ranking() const;

  /// Compiled plan producing the [num_nodes, 1] pre-sigmoid seed logits —
  /// the source of ranking(). Read-only; execute with flat_params() /
  /// features() and a caller-owned arena.
  const GnnPlan& logits_plan() const { return logits_plan_; }

  std::span<const float> flat_params() const { return flat_params_; }
  const Matrix& features() const { return features_; }

  /// The graph this snapshot keeps alive, or null when it was built
  /// against a borrowed graph (the static-serving path).
  const std::shared_ptr<const Graph>& owned_graph() const { return graph_; }

 private:
  ModelSnapshot() = default;

  uint64_t id_ = 0;
  std::shared_ptr<const Graph> graph_;
  std::unique_ptr<GnnModel> model_;
  GraphContext ctx_;  // The plan borrows ctx_'s edge vectors.
  Matrix features_;
  std::vector<float> flat_params_;
  GnnPlan logits_plan_;
  mutable std::once_flag ranking_once_;
  mutable SeedRanking ranking_;  // Written once, under ranking_once_.
};

}  // namespace privim

#endif  // PRIVIM_SERVE_SNAPSHOT_H_
