#include "io/binary_format.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "io/atomic_write.h"
#include "io/crc32.h"
#include "io/io_fault.h"
#include "io/varint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/macros.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tpm {

namespace {
constexpr char kMagic[4] = {'T', 'P', 'M', 'B'};
constexpr uint64_t kVersion = 1;
constexpr size_t kMagicBytes = 4;

// Corruption diagnostic carrying the section being decoded and the absolute
// byte offset within the file where decoding stopped. The "byte offset N"
// phrasing is part of the error contract (fuzz_test parses it).
Status CorruptAt(const char* section, size_t offset, const std::string& detail) {
  return Status::Corruption(StringPrintf("%s (section %s, byte offset %zu)",
                                         detail.c_str(), section, offset));
}
}  // namespace

// Decodes a Result<T>-producing expression into `lhs`; a decode failure is
// rewritten as Corruption pinned to `section` and the reader's file offset.
#define TPM_BINARY_FIELD(lhs, rexpr, section)                                \
  TPM_BINARY_FIELD_IMPL(TPM_CONCAT(_tpm_field_, __LINE__), lhs, rexpr,       \
                        section)
#define TPM_BINARY_FIELD_IMPL(result_name, lhs, rexpr, section)              \
  auto&& result_name = (rexpr);                                              \
  if (!result_name.ok()) {                                                   \
    return CorruptAt(section, kMagicBytes + r.offset(),                      \
                     result_name.status().message());                        \
  }                                                                          \
  lhs = std::move(result_name).ValueOrDie()

std::string SerializeBinary(const IntervalDatabase& db) {
  std::string out;
  out.append(kMagic, 4);
  PutVarint64(&out, kVersion);
  PutVarint64(&out, db.dict().size());
  for (const std::string& name : db.dict().names()) {
    PutVarint64(&out, name.size());
    out.append(name);
  }
  PutVarint64(&out, db.size());
  for (const EventSequence& seq : db.sequences()) {
    PutVarint64(&out, seq.size());
    TimeT prev_start = 0;
    for (const Interval& iv : seq.intervals()) {
      PutVarint64(&out, iv.event);
      PutSignedVarint64(&out, iv.start - prev_start);
      PutVarint64(&out, static_cast<uint64_t>(iv.Duration()));
      prev_start = iv.start;
    }
  }
  const uint32_t crc = Crc32(out.data(), out.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  obs::MetricsRegistry::Global()
      .GetCounter("io.binary.write_bytes")
      ->Increment(out.size());
  return out;
}

Result<IntervalDatabase> ParseBinary(const std::string& buffer) {
  TPM_TRACE_SPAN("io.binary.parse");
  WallTimer parse_timer;
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("io.binary.read_bytes")->Increment(buffer.size());
  obs::Counter* parse_ns = reg.GetCounter("io.binary.parse_ns");
  auto record_ns = [&] {
    parse_ns->Increment(
        static_cast<uint64_t>(parse_timer.ElapsedSeconds() * 1e9));
  };
  // Every return path below charges the elapsed time, including corrupt input.
  struct NsGuard {
    decltype(record_ns)& fn;
    ~NsGuard() { fn(); }
  } guard{record_ns};
  if (buffer.size() < 8 || std::memcmp(buffer.data(), kMagic, kMagicBytes) != 0) {
    return CorruptAt("magic", 0, "not a TPMB file (bad magic)");
  }
  const size_t body_size = buffer.size() - 4;
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(
                      static_cast<uint8_t>(buffer[body_size + i]))
                  << (8 * i);
  }
  if (Crc32(buffer.data(), body_size) != stored_crc) {
    return CorruptAt("trailing CRC", body_size,
                     "TPMB checksum mismatch (truncated or corrupt)");
  }

  VarintReader r(buffer.data() + kMagicBytes, body_size - kMagicBytes);
  TPM_BINARY_FIELD(uint64_t version, r.GetVarint64(), "header varint");
  if (version != kVersion) {
    return Status::NotImplemented(
        StringPrintf("TPMB version %llu unsupported",
                     static_cast<unsigned long long>(version)));
  }
  IntervalDatabase db;
  TPM_BINARY_FIELD(uint64_t dict_count, r.GetVarint64(), "header varint");
  for (uint64_t i = 0; i < dict_count; ++i) {
    TPM_BINARY_FIELD(std::string name, r.GetLengthPrefixedString(),
                     "header varint");
    db.dict().Intern(name);
  }
  TPM_BINARY_FIELD(uint64_t seq_count, r.GetVarint64(), "header varint");
  for (uint64_t s = 0; s < seq_count; ++s) {
    if (IoFaultPoint("io.alloc")) {
      return Status::ResourceExhausted(StringPrintf(
          "injected allocation failure at record boundary %llu (fault site "
          "io.alloc)",
          static_cast<unsigned long long>(s)));
    }
    TPM_BINARY_FIELD(uint64_t n, r.GetVarint64(), "record");
    EventSequence seq;
    TimeT prev_start = 0;
    for (uint64_t k = 0; k < n; ++k) {
      TPM_BINARY_FIELD(uint64_t event, r.GetVarint64(), "record");
      TPM_BINARY_FIELD(int64_t delta, r.GetSignedVarint64(), "record");
      TPM_BINARY_FIELD(uint64_t duration, r.GetVarint64(), "record");
      if (event >= dict_count) {
        return CorruptAt("record", kMagicBytes + r.offset(),
                         "event id out of dictionary range");
      }
      // Forged-CRC inputs control delta/duration fully; checked arithmetic
      // keeps a hostile record from overflowing the signed time domain.
      TimeT start = 0;
      if (__builtin_add_overflow(prev_start, delta, &start)) {
        return CorruptAt("record", kMagicBytes + r.offset(),
                         "interval start overflows the time domain");
      }
      TimeT finish = 0;
      if (duration > static_cast<uint64_t>(std::numeric_limits<TimeT>::max()) ||
          __builtin_add_overflow(start, static_cast<TimeT>(duration),
                                 &finish)) {
        return CorruptAt("record", kMagicBytes + r.offset(),
                         "interval duration overflows the time domain");
      }
      seq.Add(static_cast<EventId>(event), start, finish);
      prev_start = start;
    }
    db.AddSequence(std::move(seq));  // normalizes
  }
  if (r.remaining() != 0) {
    return CorruptAt("record", kMagicBytes + r.offset(),
                     "trailing bytes after TPMB payload");
  }
  TPM_RETURN_NOT_OK(db.Validate());
  return db;
}

Status WriteBinaryFile(const IntervalDatabase& db, const std::string& path) {
  return WriteFileAtomic(path, SerializeBinary(db));
}

Result<IntervalDatabase> ReadBinaryFile(const std::string& path) {
  if (IoFaultPoint("io.open_read")) {
    return Status::IOError("injected open failure for '" + path + "'");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (IoFaultPoint("io.read")) {
    return Status::IOError("injected short read for '" + path + "'");
  }
  if (!in.good() && !in.eof()) {
    return Status::IOError("read failed for '" + path + "'");
  }
  return ParseBinary(buf.str());
}

}  // namespace tpm
