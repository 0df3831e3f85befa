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
/// the last reference releases it.
///
/// Construction only validates and stores: FromModel checks the model and
/// the graph, keeps the model and a reference to the graph, and returns.
/// The inference state (context, features, flat parameters, plan) is
/// derived on the first call to features(), logits_plan(), flat_params()
/// or ranking(), behind std::call_once; the ranking is one forward of
/// that plan in a temporary arena plus one sort, behind a second
/// std::call_once. Concurrent first callers wait for the single
/// computation, and every later call reads the stored result, so
/// concurrent query execution needs no further synchronization. Lazy
/// because a snapshot that never answers a top-k query (a stream
/// publishing every batch beside spread-only traffic) then never pays for
/// inference. The model cannot change within a snapshot, so deriving once
/// is exactly as good as deriving per query — and, inference being
/// post-processing of the released parameters, it spends no privacy
/// budget either way.
///
/// A snapshot is compiled against ONE graph (the plan embeds the graph's
/// edge structure); `num_nodes()` is validated by the Server at swap
/// time. Because the graph is read on first use, not at construction, it
/// must stay alive and unmodified until the inference state is built:
/// the borrowed-graph FromModel overload requires the caller to keep the
/// graph alive for the snapshot's lifetime.
///
/// Dynamic graphs: a snapshot may instead OWN the graph it is compiled
/// against (the graph-owning FromModel overload). That is the unit the
/// streaming pipeline publishes — graph and model swap together,
/// atomically, through Server::SwapGraphAndSnapshot, and the retired
/// graph stays alive exactly as long as in-flight queries still hold the
/// retired snapshot (docs/streaming.md).
class ModelSnapshot {
 public:
  /// Builds a servable snapshot from a loaded model. Fails with
  /// InvalidArgument on a null model or an empty graph, and with
  /// FailedPrecondition when the model's input width does not match the
  /// structural feature dim (kNodeFeatureDim) or `graph` lacks its
  /// in-CSR. The snapshot borrows `graph` (owned_graph() stays null) and
  /// reads it on first use: the caller keeps it alive, unmodified, for the
  /// snapshot's lifetime — the Server's original static-graph contract.
  static Result<std::shared_ptr<const ModelSnapshot>> FromModel(
      std::unique_ptr<GnnModel> model, const Graph& graph);

  /// Graph-owning variant: the snapshot keeps `graph` alive and exposes
  /// it via owned_graph(). Required by Server::SwapGraphAndSnapshot.
  static Result<std::shared_ptr<const ModelSnapshot>> FromModel(
      std::unique_ptr<GnnModel> model, std::shared_ptr<const Graph> graph);

  /// One-call restore: LoadModel(path) + the borrowed-graph FromModel.
  /// Error statuses name `path` and hint at version/artifact mismatches
  /// (nn/serialization.h).
  static Result<std::shared_ptr<const ModelSnapshot>> Load(
      const std::string& path, const Graph& graph);

  /// Process-unique identity, assigned at construction (monotonic from 1).
  /// Responses carry this id, which is what makes every answer
  /// attributable to exactly one snapshot.
  uint64_t id() const { return id_; }

  /// Node count of the graph this snapshot was compiled against.
  size_t num_nodes() const { return num_nodes_; }

  const GnnModel& model() const { return *model_; }

  /// The seed ranking, computed on the first call (see the class comment)
  /// and stored for the snapshot's lifetime. Thread-safe.
  const SeedRanking& ranking() const;

  /// Compiled plan producing the [num_nodes, 1] pre-sigmoid seed logits —
  /// the source of ranking(). Read-only; execute with flat_params() /
  /// features() and a caller-owned arena. This and the two accessors
  /// below build the inference state on first use. Thread-safe.
  const GnnPlan& logits_plan() const { return inference().plan; }
  std::span<const float> flat_params() const {
    return inference().flat_params;
  }
  const Matrix& features() const { return inference().features; }

  /// The graph this snapshot keeps alive, or null when it was built
  /// against a borrowed graph (the static-serving path).
  const std::shared_ptr<const Graph>& owned_graph() const {
    return owned_graph_;
  }

 private:
  /// What inference over the graph derives from the model, built once.
  struct Inference {
    GraphContext ctx;  // The plan borrows ctx's edge vectors.
    Matrix features;
    std::vector<float> flat_params;
    GnnPlan plan;
  };

  ModelSnapshot() = default;
  const Inference& inference() const;

  uint64_t id_ = 0;
  size_t num_nodes_ = 0;
  const Graph* graph_ = nullptr;  // Borrowed, or owned_graph_.get().
  std::shared_ptr<const Graph> owned_graph_;
  std::unique_ptr<GnnModel> model_;
  mutable std::once_flag inference_once_;
  mutable Inference inference_;  // Written once, under inference_once_.
  mutable std::once_flag ranking_once_;
  mutable SeedRanking ranking_;  // Written once, under ranking_once_.
};

}  // namespace privim

#endif  // PRIVIM_SERVE_SNAPSHOT_H_
