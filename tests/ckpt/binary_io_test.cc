// The snapshot-file substrate: envelope validation, bit-exact scalar round
// trips, and rejection of every corruption mode a crash can produce.

#include "ckpt/binary_io.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/stream_state.h"

namespace privim {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

constexpr uint32_t kVersion = 3;
constexpr uint32_t kKind = 7;

TEST(BinaryIoTest, ScalarsRoundTripBitExactly) {
  const std::string path = TempPath("privim_binio_scalars.bin");
  const std::string text("clip=0.5; newline \n and nul \0 inside", 37);
  BinaryWriter w(kVersion, kKind);
  w.WriteU8(200);
  w.WriteU32(0xdeadbeefu);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteI64(-42);
  w.WriteFloat(-0.0f);
  w.WriteFloat(std::numeric_limits<float>::denorm_min());
  w.WriteDouble(0.1);  // Not exactly representable; must round trip anyway.
  w.WriteDouble(std::numeric_limits<double>::infinity());
  w.WriteString(text);
  ASSERT_TRUE(w.Commit(path).ok());

  BinaryReader r = std::move(BinaryReader::Open(path, kVersion, kKind))
                       .ValueOrDie();
  EXPECT_EQ(std::move(r.ReadU8()).ValueOrDie(), 200);
  EXPECT_EQ(std::move(r.ReadU32()).ValueOrDie(), 0xdeadbeefu);
  EXPECT_EQ(std::move(r.ReadU64()).ValueOrDie(), 0x0123456789abcdefULL);
  EXPECT_EQ(std::move(r.ReadI64()).ValueOrDie(), -42);
  const float neg_zero = std::move(r.ReadFloat()).ValueOrDie();
  EXPECT_EQ(neg_zero, 0.0f);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(std::move(r.ReadFloat()).ValueOrDie(),
            std::numeric_limits<float>::denorm_min());
  EXPECT_EQ(std::move(r.ReadDouble()).ValueOrDie(), 0.1);
  EXPECT_EQ(std::move(r.ReadDouble()).ValueOrDie(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(std::move(r.ReadString()).ValueOrDie(), text);
  EXPECT_TRUE(r.AtEnd());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, VectorsRoundTrip) {
  const std::string path = TempPath("privim_binio_vectors.bin");
  const std::vector<float> floats = {1.5f, -2.25f, 0.0f};
  const std::vector<double> doubles = {1e-300, 3.14159, -0.0};
  const std::vector<uint64_t> u64s = {0, 1, ~0ULL};
  const std::vector<size_t> sizes = {7, 0, 123456};
  const std::vector<uint32_t> u32s = {9u, 0xffffffffu};
  const std::vector<float> empty;
  BinaryWriter w(kVersion, kKind);
  w.WriteFloatVec(floats);
  w.WriteDoubleVec(doubles);
  w.WriteU64Vec(u64s);
  w.WriteSizeVec(sizes);
  w.WriteU32Vec(u32s);
  w.WriteFloatVec(empty);
  ASSERT_TRUE(w.Commit(path).ok());

  BinaryReader r = std::move(BinaryReader::Open(path, kVersion, kKind))
                       .ValueOrDie();
  EXPECT_EQ(std::move(r.ReadFloatVec()).ValueOrDie(), floats);
  EXPECT_EQ(std::move(r.ReadDoubleVec()).ValueOrDie(), doubles);
  EXPECT_EQ(std::move(r.ReadU64Vec()).ValueOrDie(), u64s);
  EXPECT_EQ(std::move(r.ReadSizeVec()).ValueOrDie(), sizes);
  EXPECT_EQ(std::move(r.ReadU32Vec()).ValueOrDie(), u32s);
  EXPECT_EQ(std::move(r.ReadFloatVec()).ValueOrDie(), empty);
  EXPECT_TRUE(r.AtEnd());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(BinaryReader::Open("/no/such/snapshot.bin", kVersion, kKind)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(FileExists("/no/such/snapshot.bin"));
}

TEST(BinaryIoTest, CommitLeavesNoTempFile) {
  const std::string path = TempPath("privim_binio_commit.bin");
  BinaryWriter w(kVersion, kKind);
  w.WriteU64(1);
  ASSERT_TRUE(w.Commit(path).ok());
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(BinaryIoTest, CommitCreatesParentDirectories) {
  const std::string dir = TempPath("privim_binio_nested");
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/a/b/snapshot.bin";
  BinaryWriter w(kVersion, kKind);
  w.WriteU64(5);
  ASSERT_TRUE(w.Commit(path).ok());
  EXPECT_TRUE(FileExists(path));
  std::filesystem::remove_all(dir);
}

TEST(BinaryIoTest, WrongVersionIsRejectedNamingBoth) {
  const std::string path = TempPath("privim_binio_version.bin");
  BinaryWriter w(kVersion, kKind);
  w.WriteU64(1);
  ASSERT_TRUE(w.Commit(path).ok());
  const Status status =
      BinaryReader::Open(path, kVersion + 1, kKind).status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("3"), std::string::npos);
  EXPECT_NE(status.message().find("4"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, WrongKindIsRejected) {
  const std::string path = TempPath("privim_binio_kind.bin");
  BinaryWriter w(kVersion, kKind);
  w.WriteU64(1);
  ASSERT_TRUE(w.Commit(path).ok());
  EXPECT_FALSE(BinaryReader::Open(path, kVersion, kKind + 1).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, WrongMagicIsRejected) {
  const std::string path = TempPath("privim_binio_magic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTACKPTxxxxxxxxxxxxxxxxxxxxxxxxxxxx";
  }
  EXPECT_FALSE(BinaryReader::Open(path, kVersion, kKind).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, PayloadCorruptionFailsChecksum) {
  const std::string path = TempPath("privim_binio_corrupt.bin");
  BinaryWriter w(kVersion, kKind);
  w.WriteU64(0x1122334455667788ULL);
  w.WriteDouble(2.5);
  ASSERT_TRUE(w.Commit(path).ok());

  // Flip one payload byte (header is 8 magic + 4 version + 4 kind + 8 len).
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(24 + 3);
  char byte = 0;
  f.seekg(24 + 3);
  f.read(&byte, 1);
  byte ^= 0x40;
  f.seekp(24 + 3);
  f.write(&byte, 1);
  f.close();

  EXPECT_FALSE(BinaryReader::Open(path, kVersion, kKind).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, TruncatedFileIsRejected) {
  const std::string path = TempPath("privim_binio_trunc.bin");
  BinaryWriter w(kVersion, kKind);
  w.WriteU64(1);
  w.WriteU64(2);
  w.WriteU64(3);
  ASSERT_TRUE(w.Commit(path).ok());
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 6);
  EXPECT_FALSE(BinaryReader::Open(path, kVersion, kKind).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ReadPastEndFailsInsteadOfFabricating) {
  const std::string path = TempPath("privim_binio_overread.bin");
  BinaryWriter w(kVersion, kKind);
  w.WriteU32(11);
  ASSERT_TRUE(w.Commit(path).ok());
  BinaryReader r = std::move(BinaryReader::Open(path, kVersion, kKind))
                       .ValueOrDie();
  EXPECT_EQ(std::move(r.ReadU32()).ValueOrDie(), 11u);
  EXPECT_FALSE(r.ReadU64().ok());
}

TEST(BinaryIoTest, Fnv1aIsStableAndSeedSensitive) {
  const std::vector<uint8_t> bytes = {1, 2, 3, 4};
  const uint64_t a = Fnv1a(bytes);
  EXPECT_EQ(a, Fnv1a(bytes));
  EXPECT_NE(a, Fnv1a(bytes, /*seed=*/123));
  EXPECT_NE(a, Fnv1a(std::vector<uint8_t>{1, 2, 3}));
}

// Hostile lengths: a file with a valid magic, version, kind and checksum
// (FNV-1a is no MAC, so a forged file passes it) whose count field claims
// 2^62 entries. Every reader must return a Status naming the field before
// it sizes anything from the count; the parent build died in reserve()
// with std::length_error.
constexpr uint64_t kHostileCount = uint64_t{1} << 62;

void ExpectRefusal(const Status& s, const std::string& field) {
  EXPECT_FALSE(s.ok()) << field;
  EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  EXPECT_NE(s.message().find(field), std::string::npos) << s.ToString();
}

TEST(BinaryIoTest, HostileVectorLengthFailsBeforeAllocating) {
  const std::string path = TempPath("privim_binio_hostile_len.bin");
  BinaryWriter w(kVersion, kKind);
  w.WriteU64(kHostileCount);
  w.WriteDouble(1.0);  // A few real bytes after the length.
  ASSERT_TRUE(w.Commit(path).ok());
  using Read = std::function<Status(BinaryReader&)>;
  const std::vector<std::pair<std::string, Read>> readers = {
      {"float-vector length",
       [](BinaryReader& r) { return r.ReadFloatVec().status(); }},
      {"double-vector length",
       [](BinaryReader& r) { return r.ReadDoubleVec().status(); }},
      {"u64-vector length",
       [](BinaryReader& r) { return r.ReadU64Vec().status(); }},
      {"u64-vector length",
       [](BinaryReader& r) { return r.ReadSizeVec().status(); }},
      {"u32-vector length",
       [](BinaryReader& r) { return r.ReadU32Vec().status(); }},
  };
  for (const auto& [field, read] : readers) {
    BinaryReader r =
        std::move(BinaryReader::Open(path, kVersion, kKind)).ValueOrDie();
    ExpectRefusal(read(r), field);
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, CountThatFitsExactlyIsAccepted) {
  const std::string path = TempPath("privim_binio_exact_count.bin");
  BinaryWriter w(kVersion, kKind);
  w.WriteU32(5);
  w.WriteU32(6);
  ASSERT_TRUE(w.Commit(path).ok());
  BinaryReader r =
      std::move(BinaryReader::Open(path, kVersion, kKind)).ValueOrDie();
  EXPECT_TRUE(r.CheckCount(2, sizeof(uint32_t), "pair").ok());
  EXPECT_FALSE(r.CheckCount(3, sizeof(uint32_t), "pair").ok());
  std::remove(path.c_str());
}

// The stream-state envelope (ckpt/stream_state.cc): version 1, kind 3.
constexpr uint32_t kStreamVersion = 1;
constexpr uint32_t kStreamKind = 3;

/// Writes a stream-state payload whose fields are valid up to the count
/// named by `hostile` ("event log", "accountant rounds" or "history
/// rows"), which claims kHostileCount entries.
std::string WriteHostileStreamState(const std::string& hostile) {
  const std::string path = TempPath("privim_stream_hostile.ckpt");
  BinaryWriter w(kStreamVersion, kStreamKind);
  w.WriteU64(7);  // fingerprint
  w.WriteU64(2);  // batches_applied
  w.WriteU64(hostile == "event log" ? kHostileCount : 0);
  w.WriteDouble(1e-5);                      // accountant delta
  w.WriteDoubleVec(std::vector<double>{});  // gamma totals
  w.WriteU64(hostile == "accountant rounds" ? kHostileCount : 0);
  w.WriteU64(0);  // arcs_at_train
  w.WriteU64(0);  // changed_since_train
  w.WriteU64(0);  // batches_since_train
  w.WriteU32Vec(std::vector<uint32_t>{});
  w.WriteDoubleVec(std::vector<double>{});
  w.WriteU8(0);  // has_model
  w.WriteFloatVec(std::vector<float>{});
  w.WriteU64(0);  // sketch stream base
  w.WriteU64(0);  // sketch sets
  w.WriteU64(hostile == "history rows" ? kHostileCount : 0);
  EXPECT_TRUE(w.Commit(path).ok());
  return path;
}

TEST(StreamStateHostileTest, HostileCountsFailNamingTheField) {
  for (const std::string field :
       {"event log", "accountant rounds", "history rows"}) {
    const std::string path = WriteHostileStreamState(field);
    ExpectRefusal(LoadStreamState(path).status(), field);
    std::remove(path.c_str());
  }
  // Control: the same payload with no hostile count loads.
  const std::string path = WriteHostileStreamState("");
  EXPECT_TRUE(LoadStreamState(path).ok());
  std::remove(path.c_str());
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// `file` with its payload cut to `len` bytes and the length and checksum
/// rewritten, so only the payload's own fields can notice the cut.
std::vector<uint8_t> ResealCut(const std::vector<uint8_t>& file,
                               size_t len) {
  constexpr size_t kHeader = 8 + 4 + 4 + 8;
  std::vector<uint8_t> out(file.begin(), file.begin() + kHeader + len);
  const auto put_le = [&out](size_t at, uint64_t v) {
    for (size_t i = 0; i < 8; ++i) {
      const uint8_t byte = static_cast<uint8_t>(v >> (8 * i));
      if (at + i < out.size()) {
        out[at + i] = byte;
      } else {
        out.push_back(byte);
      }
    }
  };
  put_le(16, len);
  put_le(out.size(), Fnv1a({out.data() + kHeader, len}));
  return out;
}

TEST(StreamStateHostileTest, TruncatedStateFailsAtEveryCut) {
  StreamState state;
  state.fingerprint = 0xabc;
  state.batches_applied = 3;
  state.event_log = {UpdateEvent{UpdateKind::kAddEdge, 1, 2, 0.5f, 10},
                     UpdateEvent{UpdateKind::kRemoveNode, 4, 0, 1.0f, 11}};
  state.accountant.gamma_totals = {0.1, 0.2};
  state.accountant.rounds.resize(1);
  state.seeds = {3, 1};
  state.seed_scores = {0.9, 0.8};
  state.has_model = 1;
  state.model_params = {0.25f, -1.0f, 2.0f};
  state.sketch_sets = 16;
  state.history.resize(2);
  const std::string path = TempPath("privim_stream_trunc.ckpt");
  ASSERT_TRUE(SaveStreamState(state, path).ok());
  const std::vector<uint8_t> file = FileBytes(path);
  ASSERT_TRUE(LoadStreamState(path).ok());

  // A plain truncation breaks the envelope.
  std::filesystem::resize_file(path, file.size() - 5);
  EXPECT_EQ(LoadStreamState(path).status().code(), StatusCode::kIoError);

  // A resealed cut passes the envelope; the fields must catch it.
  const size_t payload = file.size() - (8 + 4 + 4 + 8) - 8;
  for (size_t len = 0; len < payload; ++len) {
    const std::vector<uint8_t> cut = ResealCut(file, len);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(cut.data()),
                static_cast<std::streamsize>(cut.size()));
    }
    const Status s = LoadStreamState(path).status();
    EXPECT_EQ(s.code(), StatusCode::kIoError) << "cut at " << len << ": "
                                              << s.ToString();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace privim
