#include "ckpt/binary_io.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/string_util.h"

namespace privim {

namespace {

constexpr char kMagic[8] = {'P', 'R', 'I', 'V', 'C', 'K', 'P', 'T'};

void AppendLe(std::vector<uint8_t>& out, uint64_t v, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

uint64_t DecodeLe(std::span<const uint8_t> bytes) {
  uint64_t v = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    v |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  return v;
}

}  // namespace

uint64_t Fnv1a(std::span<const uint8_t> bytes, uint64_t seed) {
  uint64_t h = seed;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void BinaryWriter::WriteU8(uint8_t v) { payload_.push_back(v); }

void BinaryWriter::WriteU32(uint32_t v) { AppendLe(payload_, v, 4); }

void BinaryWriter::WriteU64(uint64_t v) { AppendLe(payload_, v, 8); }

void BinaryWriter::WriteI64(int64_t v) {
  AppendLe(payload_, static_cast<uint64_t>(v), 8);
}

void BinaryWriter::WriteFloat(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU32(bits);
}

void BinaryWriter::WriteDouble(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  payload_.insert(payload_.end(), s.begin(), s.end());
}

void BinaryWriter::WriteFloatVec(std::span<const float> v) {
  WriteU64(v.size());
  for (float x : v) WriteFloat(x);
}

void BinaryWriter::WriteDoubleVec(std::span<const double> v) {
  WriteU64(v.size());
  for (double x : v) WriteDouble(x);
}

void BinaryWriter::WriteU64Vec(std::span<const uint64_t> v) {
  WriteU64(v.size());
  for (uint64_t x : v) WriteU64(x);
}

void BinaryWriter::WriteSizeVec(std::span<const size_t> v) {
  WriteU64(v.size());
  for (size_t x : v) WriteU64(static_cast<uint64_t>(x));
}

void BinaryWriter::WriteU32Vec(std::span<const uint32_t> v) {
  WriteU64(v.size());
  for (uint32_t x : v) WriteU32(x);
}

Status BinaryWriter::Commit(const std::string& path) const {
  std::error_code ec;
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
    if (ec) {
      return Status::IoError(StrFormat("cannot create directory '%s': %s",
                                       target.parent_path().c_str(),
                                       ec.message().c_str()));
    }
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError(StrFormat("cannot open '%s'", tmp.c_str()));
    }
    std::vector<uint8_t> header;
    header.insert(header.end(), kMagic, kMagic + sizeof(kMagic));
    AppendLe(header, version_, 4);
    AppendLe(header, kind_, 4);
    AppendLe(header, payload_.size(), 8);
    out.write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size()));
    out.write(reinterpret_cast<const char*>(payload_.data()),
              static_cast<std::streamsize>(payload_.size()));
    std::vector<uint8_t> footer;
    AppendLe(footer, Fnv1a(payload_), 8);
    out.write(reinterpret_cast<const char*>(footer.data()),
              static_cast<std::streamsize>(footer.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError(StrFormat("write failed for '%s'", tmp.c_str()));
    }
  }
  // The rename is the commit point: readers either see the previous
  // complete checkpoint or this one, never a prefix.
  std::filesystem::rename(tmp, target, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::IoError(StrFormat("cannot rename '%s' over '%s': %s",
                                     tmp.c_str(), path.c_str(),
                                     ec.message().c_str()));
  }
  return Status::OK();
}

Result<BinaryReader> BinaryReader::Open(const std::string& path,
                                        uint32_t expect_version,
                                        uint32_t expect_kind) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  constexpr size_t kHeader = 8 + 4 + 4 + 8;
  if (file.size() < kHeader + 8) {
    return Status::IoError(
        StrFormat("'%s' is too short to be a checkpoint", path.c_str()));
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError(
        StrFormat("'%s' is not a privim checkpoint (bad magic)",
                  path.c_str()));
  }
  const uint32_t version =
      static_cast<uint32_t>(DecodeLe({file.data() + 8, 4}));
  const uint32_t kind =
      static_cast<uint32_t>(DecodeLe({file.data() + 12, 4}));
  if (version != expect_version) {
    return Status::FailedPrecondition(StrFormat(
        "'%s' has checkpoint version %u, this build reads version %u",
        path.c_str(), version, expect_version));
  }
  if (kind != expect_kind) {
    return Status::FailedPrecondition(StrFormat(
        "'%s' holds checkpoint kind %u, expected kind %u", path.c_str(),
        kind, expect_kind));
  }
  const uint64_t length = DecodeLe({file.data() + 16, 8});
  if (file.size() != kHeader + length + 8) {
    return Status::IoError(StrFormat(
        "'%s' is truncated: header promises %llu payload bytes, file has "
        "%zu",
        path.c_str(), static_cast<unsigned long long>(length), file.size()));
  }
  const std::span<const uint8_t> payload{file.data() + kHeader,
                                         static_cast<size_t>(length)};
  const uint64_t want_hash = DecodeLe({file.data() + kHeader + length, 8});
  if (Fnv1a(payload) != want_hash) {
    return Status::IoError(StrFormat(
        "'%s' is corrupted: payload checksum mismatch", path.c_str()));
  }
  BinaryReader reader;
  reader.payload_.assign(payload.begin(), payload.end());
  return reader;
}

Result<std::span<const uint8_t>> BinaryReader::Take(size_t n) {
  if (payload_.size() - pos_ < n) {
    return Status::IoError(StrFormat(
        "checkpoint payload underrun: need %zu bytes, %zu left", n,
        payload_.size() - pos_));
  }
  std::span<const uint8_t> out{payload_.data() + pos_, n};
  pos_ += n;
  return out;
}

Status BinaryReader::CheckCount(uint64_t count, size_t min_entry_bytes,
                               const char* field) const {
  if (count > remaining() / min_entry_bytes) {
    return Status::IoError(StrFormat(
        "checkpoint field '%s' claims %llu entries of at least %zu bytes, "
        "but only %zu payload bytes are left",
        field, static_cast<unsigned long long>(count), min_entry_bytes,
        remaining()));
  }
  return Status::OK();
}

Result<uint8_t> BinaryReader::ReadU8() {
  PRIVIM_ASSIGN_OR_RETURN(std::span<const uint8_t> b, Take(1));
  return b[0];
}

Result<uint32_t> BinaryReader::ReadU32() {
  PRIVIM_ASSIGN_OR_RETURN(std::span<const uint8_t> b, Take(4));
  return static_cast<uint32_t>(DecodeLe(b));
}

Result<uint64_t> BinaryReader::ReadU64() {
  PRIVIM_ASSIGN_OR_RETURN(std::span<const uint8_t> b, Take(8));
  return DecodeLe(b);
}

Result<int64_t> BinaryReader::ReadI64() {
  PRIVIM_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<float> BinaryReader::ReadFloat() {
  PRIVIM_ASSIGN_OR_RETURN(uint32_t bits, ReadU32());
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<double> BinaryReader::ReadDouble() {
  PRIVIM_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> BinaryReader::ReadString() {
  PRIVIM_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  PRIVIM_ASSIGN_OR_RETURN(std::span<const uint8_t> b,
                          Take(static_cast<size_t>(n)));
  return std::string(b.begin(), b.end());
}

Result<std::vector<float>> BinaryReader::ReadFloatVec() {
  PRIVIM_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  PRIVIM_RETURN_NOT_OK(CheckCount(n, sizeof(float), "float-vector length"));
  std::vector<float> out;
  out.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    PRIVIM_ASSIGN_OR_RETURN(float v, ReadFloat());
    out.push_back(v);
  }
  return out;
}

Result<std::vector<double>> BinaryReader::ReadDoubleVec() {
  PRIVIM_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  PRIVIM_RETURN_NOT_OK(CheckCount(n, sizeof(double), "double-vector length"));
  std::vector<double> out;
  out.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    PRIVIM_ASSIGN_OR_RETURN(double v, ReadDouble());
    out.push_back(v);
  }
  return out;
}

Result<std::vector<uint64_t>> BinaryReader::ReadU64Vec() {
  PRIVIM_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  PRIVIM_RETURN_NOT_OK(CheckCount(n, sizeof(uint64_t), "u64-vector length"));
  std::vector<uint64_t> out;
  out.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    PRIVIM_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
    out.push_back(v);
  }
  return out;
}

Result<std::vector<size_t>> BinaryReader::ReadSizeVec() {
  PRIVIM_ASSIGN_OR_RETURN(std::vector<uint64_t> raw, ReadU64Vec());
  return std::vector<size_t>(raw.begin(), raw.end());
}

Result<std::vector<uint32_t>> BinaryReader::ReadU32Vec() {
  PRIVIM_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  PRIVIM_RETURN_NOT_OK(CheckCount(n, sizeof(uint32_t), "u32-vector length"));
  std::vector<uint32_t> out;
  out.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    PRIVIM_ASSIGN_OR_RETURN(uint32_t v, ReadU32());
    out.push_back(v);
  }
  return out;
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

}  // namespace privim
