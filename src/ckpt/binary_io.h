#ifndef PRIVIM_CKPT_BINARY_IO_H_
#define PRIVIM_CKPT_BINARY_IO_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace privim {

/// Versioned, checksummed binary snapshot files (the checkpoint substrate).
///
/// File layout:
///   magic   8 bytes  "PRIVCKPT"
///   version u32      format version of the enclosed `kind`
///   kind    u32      payload discriminator (caller-defined)
///   length  u64      payload byte count
///   payload length bytes
///   hash    u64      FNV-1a over the payload
///
/// All integers are little-endian; floats and doubles are stored as their
/// raw IEEE-754 bits, so every scalar round-trips bit-exactly — the
/// property the resume determinism contract rests on. The reader rejects
/// wrong magic, wrong version, wrong kind, truncation, and payload
/// corruption (hash mismatch) with a descriptive Status instead of
/// producing garbage state.

/// FNV-1a over a byte span (the payload checksum; also reused for the
/// config/graph fingerprints in checkpoint.h).
uint64_t Fnv1a(std::span<const uint8_t> bytes, uint64_t seed = 0xcbf29ce484222325ULL);

/// Accumulates a payload in memory and commits it atomically: the file is
/// written to `<path>.tmp` and renamed over `path` only after a successful
/// flush, so a crash mid-write can never leave a half-written checkpoint
/// where a valid one used to be.
class BinaryWriter {
 public:
  BinaryWriter(uint32_t version, uint32_t kind)
      : version_(version), kind_(kind) {}

  void WriteU8(uint8_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteFloat(float v);
  void WriteDouble(double v);
  /// u64 length prefix + raw bytes.
  void WriteString(const std::string& s);
  void WriteFloatVec(std::span<const float> v);
  void WriteDoubleVec(std::span<const double> v);
  void WriteU64Vec(std::span<const uint64_t> v);
  /// size_t vectors are stored as u64 (portable across word sizes).
  void WriteSizeVec(std::span<const size_t> v);
  void WriteU32Vec(std::span<const uint32_t> v);

  size_t payload_size() const { return payload_.size(); }

  /// Writes header + payload + checksum to `path` via tmp-file + rename.
  Status Commit(const std::string& path) const;

 private:
  uint32_t version_;
  uint32_t kind_;
  std::vector<uint8_t> payload_;
};

/// Loads a snapshot file fully into memory, validates the envelope, and
/// hands out bounds-checked reads. Every reader returns Result so a short
/// or corrupted file surfaces as an error at the exact field.
class BinaryReader {
 public:
  /// Opens `path` and validates magic, version, kind, length, and payload
  /// hash. A version other than `expect_version` fails with
  /// FailedPrecondition naming both versions (the version-mismatch path).
  static Result<BinaryReader> Open(const std::string& path,
                                   uint32_t expect_version,
                                   uint32_t expect_kind);

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<float> ReadFloat();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  Result<std::vector<float>> ReadFloatVec();
  Result<std::vector<double>> ReadDoubleVec();
  Result<std::vector<uint64_t>> ReadU64Vec();
  Result<std::vector<size_t>> ReadSizeVec();
  Result<std::vector<uint32_t>> ReadU32Vec();

  /// OK when `count` entries of at least `min_entry_bytes` each fit in
  /// the unread payload; IoError naming `field` otherwise. Call before
  /// sizing anything from a count read out of the file: a hostile length
  /// must fail here, not in the allocator.
  Status CheckCount(uint64_t count, size_t min_entry_bytes,
                    const char* field) const;

  /// True once every payload byte has been consumed; load functions check
  /// this to catch trailing garbage.
  bool AtEnd() const { return pos_ == payload_.size(); }
  size_t remaining() const { return payload_.size() - pos_; }
  size_t payload_size() const { return payload_.size(); }

 private:
  BinaryReader() = default;

  Result<std::span<const uint8_t>> Take(size_t n);

  std::vector<uint8_t> payload_;
  size_t pos_ = 0;
};

/// True if a regular file exists at `path` (helper for "resume if a
/// checkpoint is present" flows).
bool FileExists(const std::string& path);

}  // namespace privim

#endif  // PRIVIM_CKPT_BINARY_IO_H_
