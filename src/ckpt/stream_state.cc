#include "ckpt/stream_state.h"

#include "ckpt/binary_io.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace privim {

namespace {

constexpr uint32_t kStreamVersion = 1;
// Kinds 1 (trainer) and 2 (pipeline) live in checkpoint.cc.
constexpr uint32_t kStreamKind = 3;
// Encoded sizes of the repeated records below, the floor a count read from
// the file is checked against before anything is sized from it.
constexpr size_t kRoundBytes = 5 * 8 + 3 * 8;      // WriteSpec + 3 doubles
constexpr size_t kEventBytes = 4 * 4 + 8;          // WriteEvent
constexpr size_t kStepRecordBytes = 9 * 8 + 1 + 3 * 8;  // WriteStepRecord

void WriteSpec(BinaryWriter& w, const DpSgdSpec& spec) {
  w.WriteU64(spec.max_occurrences);
  w.WriteU64(spec.container_size);
  w.WriteU64(spec.batch_size);
  w.WriteU64(spec.iterations);
  w.WriteDouble(spec.clip_bound);
}

Result<DpSgdSpec> ReadSpec(BinaryReader& r) {
  DpSgdSpec spec;
  PRIVIM_ASSIGN_OR_RETURN(uint64_t max_occ, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(uint64_t container, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(uint64_t batch, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(uint64_t iterations, r.ReadU64());
  spec.max_occurrences = static_cast<size_t>(max_occ);
  spec.container_size = static_cast<size_t>(container);
  spec.batch_size = static_cast<size_t>(batch);
  spec.iterations = static_cast<size_t>(iterations);
  PRIVIM_ASSIGN_OR_RETURN(spec.clip_bound, r.ReadDouble());
  return spec;
}

void WriteContinualState(BinaryWriter& w,
                         const ContinualAccountant::State& state) {
  w.WriteDouble(state.delta);
  w.WriteDoubleVec(state.gamma_totals);
  w.WriteU64(state.rounds.size());
  for (const ContinualAccountant::Round& round : state.rounds) {
    WriteSpec(w, round.spec);
    w.WriteDouble(round.sigma);
    w.WriteDouble(round.round_epsilon);
    w.WriteDouble(round.cumulative_epsilon);
  }
}

Result<ContinualAccountant::State> ReadContinualState(BinaryReader& r) {
  ContinualAccountant::State state;
  PRIVIM_ASSIGN_OR_RETURN(state.delta, r.ReadDouble());
  PRIVIM_ASSIGN_OR_RETURN(state.gamma_totals, r.ReadDoubleVec());
  PRIVIM_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
  PRIVIM_RETURN_NOT_OK(r.CheckCount(count, kRoundBytes, "accountant rounds"));
  state.rounds.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    ContinualAccountant::Round round;
    PRIVIM_ASSIGN_OR_RETURN(round.spec, ReadSpec(r));
    PRIVIM_ASSIGN_OR_RETURN(round.sigma, r.ReadDouble());
    PRIVIM_ASSIGN_OR_RETURN(round.round_epsilon, r.ReadDouble());
    PRIVIM_ASSIGN_OR_RETURN(round.cumulative_epsilon, r.ReadDouble());
    state.rounds.push_back(round);
  }
  return state;
}

void WriteEvent(BinaryWriter& w, const UpdateEvent& ev) {
  w.WriteU32(static_cast<uint32_t>(ev.kind));
  w.WriteU32(ev.u);
  w.WriteU32(ev.v);
  w.WriteFloat(ev.weight);
  w.WriteI64(ev.timestamp);
}

Result<UpdateEvent> ReadEvent(BinaryReader& r) {
  UpdateEvent ev;
  PRIVIM_ASSIGN_OR_RETURN(uint32_t kind, r.ReadU32());
  if (kind > static_cast<uint32_t>(UpdateKind::kRemoveNode)) {
    return Status::IoError(StrFormat("unknown update-event kind %u", kind));
  }
  ev.kind = static_cast<UpdateKind>(kind);
  PRIVIM_ASSIGN_OR_RETURN(ev.u, r.ReadU32());
  PRIVIM_ASSIGN_OR_RETURN(ev.v, r.ReadU32());
  PRIVIM_ASSIGN_OR_RETURN(ev.weight, r.ReadFloat());
  PRIVIM_ASSIGN_OR_RETURN(ev.timestamp, r.ReadI64());
  return ev;
}

void WriteStepRecord(BinaryWriter& w, const StreamStepRecord& rec) {
  w.WriteU64(rec.batch);
  w.WriteU64(rec.events_applied);
  w.WriteU64(rec.events_skipped);
  w.WriteU64(rec.changed_out_rows);
  w.WriteU64(rec.changed_in_rows);
  w.WriteU64(rec.repaired_sets);
  w.WriteU64(rec.invalidated_balls);
  w.WriteU8(rec.retrained);
  w.WriteU64(rec.visible_nodes);
  w.WriteU64(rec.visible_arcs);
  w.WriteDouble(rec.cumulative_epsilon);
  w.WriteDouble(rec.utility);
  w.WriteDouble(rec.seconds);
}

Result<StreamStepRecord> ReadStepRecord(BinaryReader& r) {
  StreamStepRecord rec;
  PRIVIM_ASSIGN_OR_RETURN(rec.batch, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(rec.events_applied, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(rec.events_skipped, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(rec.changed_out_rows, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(rec.changed_in_rows, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(rec.repaired_sets, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(rec.invalidated_balls, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(rec.retrained, r.ReadU8());
  PRIVIM_ASSIGN_OR_RETURN(rec.visible_nodes, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(rec.visible_arcs, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(rec.cumulative_epsilon, r.ReadDouble());
  PRIVIM_ASSIGN_OR_RETURN(rec.utility, r.ReadDouble());
  PRIVIM_ASSIGN_OR_RETURN(rec.seconds, r.ReadDouble());
  return rec;
}

void RecordWrite(MetricsRegistry* metrics, size_t bytes) {
  if (metrics == nullptr) return;
  metrics->GetCounter("ckpt.writes")->Add(1);
  metrics->GetCounter("ckpt.write_bytes")->Add(bytes);
}

void RecordLoad(MetricsRegistry* metrics, size_t bytes) {
  if (metrics == nullptr) return;
  metrics->GetCounter("ckpt.restores")->Add(1);
  metrics->GetCounter("ckpt.restore_bytes")->Add(bytes);
}

}  // namespace

std::string StreamCheckpointPath(const std::string& dir) {
  return dir + "/stream.ckpt";
}

Status SaveStreamState(const StreamState& state, const std::string& path,
                       MetricsRegistry* metrics) {
  ScopedTimer timer(metrics ? metrics->GetTimer("ckpt.write") : nullptr);
  BinaryWriter w(kStreamVersion, kStreamKind);
  w.WriteU64(state.fingerprint);
  w.WriteU64(state.batches_applied);
  w.WriteU64(state.event_log.size());
  for (const UpdateEvent& ev : state.event_log) WriteEvent(w, ev);
  WriteContinualState(w, state.accountant);
  w.WriteU64(state.arcs_at_train);
  w.WriteU64(state.changed_since_train);
  w.WriteU64(state.batches_since_train);
  w.WriteU32Vec(state.seeds);
  w.WriteDoubleVec(state.seed_scores);
  w.WriteU8(state.has_model);
  w.WriteFloatVec(state.model_params);
  w.WriteU64(state.sketch_stream_base);
  w.WriteU64(state.sketch_sets);
  w.WriteU64(state.history.size());
  for (const StreamStepRecord& rec : state.history) WriteStepRecord(w, rec);
  PRIVIM_RETURN_NOT_OK(w.Commit(path));
  RecordWrite(metrics, w.payload_size());
  return Status::OK();
}

Result<StreamState> LoadStreamState(const std::string& path,
                                    MetricsRegistry* metrics) {
  ScopedTimer timer(metrics ? metrics->GetTimer("ckpt.restore") : nullptr);
  PRIVIM_ASSIGN_OR_RETURN(
      BinaryReader r, BinaryReader::Open(path, kStreamVersion, kStreamKind));
  StreamState state;
  PRIVIM_ASSIGN_OR_RETURN(state.fingerprint, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(state.batches_applied, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(uint64_t log_size, r.ReadU64());
  PRIVIM_RETURN_NOT_OK(r.CheckCount(log_size, kEventBytes, "event log"));
  state.event_log.reserve(static_cast<size_t>(log_size));
  for (uint64_t i = 0; i < log_size; ++i) {
    PRIVIM_ASSIGN_OR_RETURN(UpdateEvent ev, ReadEvent(r));
    state.event_log.push_back(ev);
  }
  PRIVIM_ASSIGN_OR_RETURN(state.accountant, ReadContinualState(r));
  PRIVIM_ASSIGN_OR_RETURN(state.arcs_at_train, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(state.changed_since_train, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(state.batches_since_train, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(state.seeds, r.ReadU32Vec());
  PRIVIM_ASSIGN_OR_RETURN(state.seed_scores, r.ReadDoubleVec());
  PRIVIM_ASSIGN_OR_RETURN(state.has_model, r.ReadU8());
  PRIVIM_ASSIGN_OR_RETURN(state.model_params, r.ReadFloatVec());
  PRIVIM_ASSIGN_OR_RETURN(state.sketch_stream_base, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(state.sketch_sets, r.ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(uint64_t hist_size, r.ReadU64());
  PRIVIM_RETURN_NOT_OK(
      r.CheckCount(hist_size, kStepRecordBytes, "history rows"));
  state.history.reserve(static_cast<size_t>(hist_size));
  for (uint64_t i = 0; i < hist_size; ++i) {
    PRIVIM_ASSIGN_OR_RETURN(StreamStepRecord rec, ReadStepRecord(r));
    state.history.push_back(rec);
  }
  if (!r.AtEnd()) {
    return Status::IoError(StrFormat(
        "'%s' has %zu trailing bytes after the stream state", path.c_str(),
        r.remaining()));
  }
  RecordLoad(metrics, r.payload_size());
  return state;
}

}  // namespace privim
