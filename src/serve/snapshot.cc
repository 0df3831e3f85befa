#include "serve/snapshot.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/string_util.h"
#include "nn/features.h"
#include "nn/serialization.h"

namespace privim {

namespace {

uint64_t NextSnapshotId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::FromModel(
    std::unique_ptr<GnnModel> model, std::shared_ptr<const Graph> graph) {
  if (graph == nullptr) {
    return Status::InvalidArgument(
        "graph-owning ModelSnapshot::FromModel: null graph");
  }
  PRIVIM_ASSIGN_OR_RETURN(std::shared_ptr<const ModelSnapshot> snap,
                          FromModel(std::move(model), *graph));
  // The const_cast is confined to construction: the snapshot was created
  // two lines up and has no other owner yet.
  const_cast<ModelSnapshot&>(*snap).owned_graph_ = std::move(graph);
  return snap;
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::FromModel(
    std::unique_ptr<GnnModel> model, const Graph& graph) {
  if (model == nullptr) {
    return Status::InvalidArgument("ModelSnapshot::FromModel: null model");
  }
  if (model->config().in_dim != kNodeFeatureDim) {
    return Status::FailedPrecondition(StrFormat(
        "model expects %zu input features but the serving layer feeds the "
        "%zu structural node features (nn/features.h); the snapshot was "
        "trained against a different feature pipeline",
        model->config().in_dim, kNodeFeatureDim));
  }
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument(
        "cannot build a snapshot against an empty graph");
  }
  if (!graph.has_in_csr()) {
    return Status::FailedPrecondition(
        "snapshot features read in-degrees; call Graph::EnsureInCsr() on "
        "graphs built without the in-CSR before installing snapshots");
  }
  // make_shared needs a public constructor; the snapshot is immutable
  // after this function, so a plain new behind a shared_ptr is fine.
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  snap->id_ = NextSnapshotId();
  snap->num_nodes_ = graph.num_nodes();
  snap->graph_ = &graph;
  snap->model_ = std::move(model);
  return std::shared_ptr<const ModelSnapshot>(std::move(snap));
}

const ModelSnapshot::Inference& ModelSnapshot::inference() const {
  std::call_once(inference_once_, [this] {
    Inference& inf = inference_;
    inf.ctx = BuildGraphContext(*graph_);
    inf.features = BuildNodeFeatures(*graph_);
    inf.flat_params.resize(model_->params().num_scalars());
    model_->params().FlattenParams(inf.flat_params);
    // Rank by pre-sigmoid logits, mirroring RunMethod's inference:
    // identical ordering to the probabilities but immune to float32
    // sigmoid saturation at the top of the ranking.
    // Serving is inference-only, so the logits plan takes the optimized
    // (fused + SIMD) compile: the ranking is still a deterministic
    // function of the snapshot, just not bit-identical to the tape
    // (docs/performance.md tolerance contract). PRIVIM_FORCE_ISA=scalar
    // restores the reference kernels.
    PlanBuilder pb;
    const PlanValId x = pb.Input(inf.ctx.num_nodes, model_->config().in_dim);
    inf.plan = pb.Build(model_->LowerLogits(pb, inf.ctx, x),
                        PlanOptions::Native());
  });
  return inference_;
}

const SeedRanking& ModelSnapshot::ranking() const {
  std::call_once(ranking_once_, [this] {
    const Inference& inf = inference();
    // The arena lives only for this one forward: the stored ranking is
    // all later queries read.
    PlanArena arena;
    inf.plan.Forward(inf.flat_params, inf.features, arena);
    const std::span<const float> logits = inf.plan.Output(arena);
    SeedRanking& r = ranking_;
    r.logits.assign(logits.begin(), logits.end());
    r.order.resize(r.logits.size());
    std::iota(r.order.begin(), r.order.end(), 0u);
    // (logit desc, id asc) with NaN after every number: a strict total
    // order, which a plain float `>` stops being once NaN mixes in.
    std::sort(r.order.begin(), r.order.end(), [&r](uint32_t a, uint32_t b) {
      const float la = r.logits[a];
      const float lb = r.logits[b];
      const bool nan_a = std::isnan(la);
      if (nan_a != std::isnan(lb)) return !nan_a;
      if (!nan_a && la != lb) return la > lb;
      return a < b;
    });
    r.position.resize(r.order.size());
    for (uint32_t i = 0; i < r.order.size(); ++i) r.position[r.order[i]] = i;
  });
  return ranking_;
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::Load(
    const std::string& path, const Graph& graph) {
  PRIVIM_ASSIGN_OR_RETURN(std::unique_ptr<GnnModel> model, LoadModel(path));
  return FromModel(std::move(model), graph);
}

}  // namespace privim
