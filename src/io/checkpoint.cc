#include "io/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "io/atomic_write.h"
#include "io/crc32.h"
#include "io/io_fault.h"
#include "io/varint.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace tpm {

namespace {

constexpr char kMagic[4] = {'T', 'P', 'M', 'C'};
// v2 added unit_pattern_counts to the progress section (one varint per
// completed unit), so a resume can regroup the pattern stream by unit no
// matter which thread count produced the checkpoint. v3 dropped the
// projection identity string and the level-wise frontier/memo sections.
constexpr uint64_t kVersion = 3;
constexpr size_t kMagicBytes = 4;

// Corruption diagnostic carrying the section being decoded and the absolute
// byte offset within the file where decoding stopped. The "byte offset N"
// phrasing is part of the error contract, shared with the TPMB reader.
Status CorruptAt(const char* section, size_t offset, const std::string& detail) {
  return Status::Corruption(StringPrintf("%s (section %s, byte offset %zu)",
                                         detail.c_str(), section, offset));
}

// Doubles travel as their IEEE-754 bit pattern in a varint; bit-exact
// round-tripping is required for the run-identity comparison.
uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void Mix(uint64_t* hash, uint64_t value) {
  // FNV-1a over the value's 8 little-endian bytes.
  for (int i = 0; i < 8; ++i) {
    *hash ^= (value >> (8 * i)) & 0xff;
    *hash *= 0x100000001b3ull;
  }
}

void MixBytes(uint64_t* hash, const std::string& s) {
  for (unsigned char c : s) {
    *hash ^= c;
    *hash *= 0x100000001b3ull;
  }
  Mix(hash, s.size());  // length delimiter: "ab","c" != "a","bc"
}

void PutPatternRec(std::string* out, const CheckpointPatternRec& rec) {
  PutVarint64(out, rec.support);
  PutVarint64(out, rec.items.size());
  for (uint32_t item : rec.items) PutVarint64(out, item);
  PutVarint64(out, rec.offsets.size());
  for (uint32_t off : rec.offsets) PutVarint64(out, off);
}

void PutString(std::string* out, const std::string& s) {
  PutVarint64(out, s.size());
  out->append(s);
}

void AppendBoolDiff(const char* field, bool have, bool want,
                    std::vector<std::string>* out) {
  if (have == want) return;
  out->push_back(StringPrintf("%s: checkpoint %s, run %s", field,
                              have ? "on" : "off", want ? "on" : "off"));
}

}  // namespace

// Decodes a Result<T>-producing expression into `lhs`; a decode failure is
// rewritten as Corruption pinned to `section` and the reader's file offset.
#define TPM_CKPT_FIELD(lhs, rexpr, section)                                   \
  TPM_CKPT_FIELD_IMPL(TPM_CONCAT(_tpm_ckpt_field_, __LINE__), lhs, rexpr,     \
                      section)
#define TPM_CKPT_FIELD_IMPL(result_name, lhs, rexpr, section)                 \
  auto&& result_name = (rexpr);                                               \
  if (!result_name.ok()) {                                                    \
    return CorruptAt(section, kMagicBytes + r.offset(),                       \
                     result_name.status().message());                         \
  }                                                                           \
  lhs = std::move(result_name).ValueOrDie()

uint64_t FingerprintDatabase(const IntervalDatabase& db) {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  Mix(&hash, db.dict().size());
  for (const std::string& name : db.dict().names()) MixBytes(&hash, name);
  Mix(&hash, db.size());
  for (const EventSequence& seq : db.sequences()) {
    Mix(&hash, seq.size());
    for (const Interval& iv : seq.intervals()) {
      Mix(&hash, iv.event);
      Mix(&hash, static_cast<uint64_t>(iv.start));
      Mix(&hash, static_cast<uint64_t>(iv.finish));
    }
  }
  return hash;
}

bool operator==(const CheckpointRunKey& a, const CheckpointRunKey& b) {
  return a.db_fingerprint == b.db_fingerprint && a.language == b.language &&
         a.algo == b.algo && DoubleBits(a.min_support) == DoubleBits(b.min_support) &&
         a.max_items == b.max_items && a.max_length == b.max_length &&
         a.max_window == b.max_window && a.pair_pruning == b.pair_pruning &&
         a.postfix_pruning == b.postfix_pruning &&
         a.validity_pruning == b.validity_pruning;
}

std::vector<std::string> DiffRunKeys(const CheckpointRunKey& have,
                                     const CheckpointRunKey& want) {
  std::vector<std::string> diffs;
  if (have.db_fingerprint != want.db_fingerprint) {
    diffs.push_back(StringPrintf(
        "db_fingerprint: checkpoint %016llx, run %016llx (different database)",
        static_cast<unsigned long long>(have.db_fingerprint),
        static_cast<unsigned long long>(want.db_fingerprint)));
  }
  if (have.language != want.language) {
    diffs.push_back(StringPrintf("language: checkpoint %s, run %s",
                                 have.language.c_str(), want.language.c_str()));
  }
  if (have.algo != want.algo) {
    diffs.push_back(StringPrintf("algo: checkpoint %s, run %s",
                                 have.algo.c_str(), want.algo.c_str()));
  }
  if (DoubleBits(have.min_support) != DoubleBits(want.min_support)) {
    diffs.push_back(StringPrintf("min_support: checkpoint %g, run %g",
                                 have.min_support, want.min_support));
  }
  if (have.max_items != want.max_items) {
    diffs.push_back(StringPrintf("max_items: checkpoint %u, run %u",
                                 have.max_items, want.max_items));
  }
  if (have.max_length != want.max_length) {
    diffs.push_back(StringPrintf("max_length: checkpoint %u, run %u",
                                 have.max_length, want.max_length));
  }
  if (have.max_window != want.max_window) {
    diffs.push_back(StringPrintf(
        "max_window: checkpoint %lld, run %lld",
        static_cast<long long>(have.max_window),
        static_cast<long long>(want.max_window)));
  }
  AppendBoolDiff("pair_pruning", have.pair_pruning, want.pair_pruning, &diffs);
  AppendBoolDiff("postfix_pruning", have.postfix_pruning, want.postfix_pruning,
                 &diffs);
  AppendBoolDiff("validity_pruning", have.validity_pruning,
                 want.validity_pruning, &diffs);
  return diffs;
}

std::string SerializeCheckpoint(const Checkpoint& ckpt) {
  std::string out;
  out.append(kMagic, 4);
  PutVarint64(&out, kVersion);
  // --- identity ---
  PutVarint64(&out, ckpt.key.db_fingerprint);
  PutString(&out, ckpt.key.language);
  PutString(&out, ckpt.key.algo);
  PutVarint64(&out, DoubleBits(ckpt.key.min_support));
  PutVarint64(&out, ckpt.key.max_items);
  PutVarint64(&out, ckpt.key.max_length);
  PutSignedVarint64(&out, ckpt.key.max_window);
  PutVarint64(&out, (ckpt.key.pair_pruning ? 1u : 0u) |
                        (ckpt.key.postfix_pruning ? 2u : 0u) |
                        (ckpt.key.validity_pruning ? 4u : 0u));
  // --- progress ---
  PutVarint64(&out, ckpt.total_units);
  PutVarint64(&out, DoubleBits(ckpt.elapsed_seconds));
  PutVarint64(&out, DoubleBits(ckpt.time_budget_seconds));
  PutVarint64(&out, ckpt.completed_units.size());
  for (uint64_t unit : ckpt.completed_units) PutVarint64(&out, unit);
  // One pattern count per completed unit, aligned with the list above; the
  // shared length keeps the two vectors structurally in lock-step.
  TPM_CHECK(ckpt.unit_pattern_counts.size() == ckpt.completed_units.size());
  for (uint64_t n : ckpt.unit_pattern_counts) PutVarint64(&out, n);
  // --- patterns ---
  PutVarint64(&out, ckpt.patterns.size());
  for (const CheckpointPatternRec& rec : ckpt.patterns) PutPatternRec(&out, rec);
  // --- metrics ---
  PutVarint64(&out, ckpt.metrics.counters.size());
  for (const obs::CounterSample& c : ckpt.metrics.counters) {
    PutString(&out, c.name);
    PutVarint64(&out, c.value);
  }
  PutVarint64(&out, ckpt.metrics.gauges.size());
  for (const obs::GaugeSample& g : ckpt.metrics.gauges) {
    PutString(&out, g.name);
    PutSignedVarint64(&out, g.value);
  }
  PutVarint64(&out, ckpt.metrics.histograms.size());
  for (const obs::HistogramSample& h : ckpt.metrics.histograms) {
    PutString(&out, h.name);
    PutVarint64(&out, h.bounds.size());
    for (uint64_t b : h.bounds) PutVarint64(&out, b);
    for (uint64_t c : h.counts) PutVarint64(&out, c);
    PutVarint64(&out, h.count);
    PutVarint64(&out, h.sum);
  }
  const uint32_t crc = Crc32(out.data(), out.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  return out;
}

namespace {

// A count prefix claiming more elements than bytes left is corrupt even when
// the CRC was forged; rejecting it here bounds reader allocations.
Status CheckCount(const char* section, uint64_t count, const VarintReader& r) {
  if (count > r.remaining()) {
    return CorruptAt(section, kMagicBytes + r.offset(),
                     StringPrintf("element count %llu exceeds remaining bytes",
                                  static_cast<unsigned long long>(count)));
  }
  return Status::OK();
}

Status ParsePatternRecs(VarintReader& r, const char* section,
                        std::vector<CheckpointPatternRec>* out) {
  TPM_CKPT_FIELD(uint64_t count, r.GetVarint64(), section);
  TPM_RETURN_NOT_OK(CheckCount(section, count, r));
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    CheckpointPatternRec rec;
    TPM_CKPT_FIELD(uint64_t support, r.GetVarint64(), section);
    rec.support = static_cast<SupportCount>(support);
    TPM_CKPT_FIELD(uint64_t nitems, r.GetVarint64(), section);
    TPM_RETURN_NOT_OK(CheckCount(section, nitems, r));
    rec.items.reserve(nitems);
    for (uint64_t k = 0; k < nitems; ++k) {
      TPM_CKPT_FIELD(uint64_t item, r.GetVarint64(), section);
      rec.items.push_back(static_cast<uint32_t>(item));
    }
    TPM_CKPT_FIELD(uint64_t noffsets, r.GetVarint64(), section);
    TPM_RETURN_NOT_OK(CheckCount(section, noffsets, r));
    rec.offsets.reserve(noffsets);
    for (uint64_t k = 0; k < noffsets; ++k) {
      TPM_CKPT_FIELD(uint64_t off, r.GetVarint64(), section);
      rec.offsets.push_back(static_cast<uint32_t>(off));
    }
    // Structural sanity so resumed miners can trust the slices without
    // re-validating: offsets must bracket the items monotonically.
    if (rec.offsets.empty() || rec.offsets.front() != 0 ||
        rec.offsets.back() != rec.items.size() ||
        !std::is_sorted(rec.offsets.begin(), rec.offsets.end())) {
      return CorruptAt(section, kMagicBytes + r.offset(),
                       "pattern record has malformed slice offsets");
    }
    out->push_back(std::move(rec));
  }
  return Status::OK();
}

}  // namespace

Result<Checkpoint> ParseCheckpoint(const std::string& buffer) {
  obs::MetricsRegistry::Global()
      .GetCounter("checkpoint.read_bytes")
      ->Increment(buffer.size());
  if (buffer.size() < 8 ||
      std::memcmp(buffer.data(), kMagic, kMagicBytes) != 0) {
    return CorruptAt("magic", 0, "not a TPMC checkpoint (bad magic)");
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
                     "TPMC checksum mismatch (truncated or corrupt)");
  }

  VarintReader r(buffer.data() + kMagicBytes, body_size - kMagicBytes);
  TPM_CKPT_FIELD(uint64_t version, r.GetVarint64(), "header varint");
  if (version != kVersion) {
    return Status::NotImplemented(
        StringPrintf("TPMC version %llu unsupported",
                     static_cast<unsigned long long>(version)));
  }
  Checkpoint ckpt;
  // --- identity ---
  TPM_CKPT_FIELD(ckpt.key.db_fingerprint, r.GetVarint64(), "identity");
  TPM_CKPT_FIELD(ckpt.key.language, r.GetLengthPrefixedString(), "identity");
  TPM_CKPT_FIELD(ckpt.key.algo, r.GetLengthPrefixedString(), "identity");
  TPM_CKPT_FIELD(uint64_t minsup_bits, r.GetVarint64(), "identity");
  ckpt.key.min_support = DoubleFromBits(minsup_bits);
  TPM_CKPT_FIELD(uint64_t max_items, r.GetVarint64(), "identity");
  ckpt.key.max_items = static_cast<uint32_t>(max_items);
  TPM_CKPT_FIELD(uint64_t max_length, r.GetVarint64(), "identity");
  ckpt.key.max_length = static_cast<uint32_t>(max_length);
  TPM_CKPT_FIELD(int64_t max_window, r.GetSignedVarint64(), "identity");
  ckpt.key.max_window = max_window;
  TPM_CKPT_FIELD(uint64_t pruning, r.GetVarint64(), "identity");
  ckpt.key.pair_pruning = (pruning & 1) != 0;
  ckpt.key.postfix_pruning = (pruning & 2) != 0;
  ckpt.key.validity_pruning = (pruning & 4) != 0;
  // --- progress ---
  TPM_CKPT_FIELD(ckpt.total_units, r.GetVarint64(), "progress");
  TPM_CKPT_FIELD(uint64_t elapsed_bits, r.GetVarint64(), "progress");
  ckpt.elapsed_seconds = DoubleFromBits(elapsed_bits);
  TPM_CKPT_FIELD(uint64_t budget_bits, r.GetVarint64(), "progress");
  ckpt.time_budget_seconds = DoubleFromBits(budget_bits);
  TPM_CKPT_FIELD(uint64_t num_completed, r.GetVarint64(), "progress");
  TPM_RETURN_NOT_OK(CheckCount("progress", num_completed, r));
  ckpt.completed_units.reserve(num_completed);
  for (uint64_t i = 0; i < num_completed; ++i) {
    TPM_CKPT_FIELD(uint64_t unit, r.GetVarint64(), "progress");
    ckpt.completed_units.push_back(unit);
  }
  ckpt.unit_pattern_counts.reserve(num_completed);
  for (uint64_t i = 0; i < num_completed; ++i) {
    TPM_CKPT_FIELD(uint64_t n, r.GetVarint64(), "progress");
    ckpt.unit_pattern_counts.push_back(n);
  }
  // --- patterns ---
  TPM_RETURN_NOT_OK(ParsePatternRecs(r, "patterns", &ckpt.patterns));
  uint64_t claimed_patterns = 0;
  for (uint64_t n : ckpt.unit_pattern_counts) {
    // A wrapping sum could collide with patterns.size() and smuggle absurd
    // per-unit counts past the check below; saturate instead of wrapping
    // (the mismatch diagnostic then fires with the saturated value).
    if (__builtin_add_overflow(claimed_patterns, n, &claimed_patterns)) {
      claimed_patterns = std::numeric_limits<uint64_t>::max();
      break;
    }
  }
  if (claimed_patterns != ckpt.patterns.size()) {
    return CorruptAt(
        "patterns", kMagicBytes + r.offset(),
        StringPrintf("unit pattern counts claim %llu patterns, found %llu",
                     static_cast<unsigned long long>(claimed_patterns),
                     static_cast<unsigned long long>(ckpt.patterns.size())));
  }
  // --- metrics ---
  TPM_CKPT_FIELD(uint64_t num_counters, r.GetVarint64(), "metrics");
  TPM_RETURN_NOT_OK(CheckCount("metrics", num_counters, r));
  ckpt.metrics.counters.reserve(num_counters);
  for (uint64_t i = 0; i < num_counters; ++i) {
    obs::CounterSample c;
    TPM_CKPT_FIELD(c.name, r.GetLengthPrefixedString(), "metrics");
    TPM_CKPT_FIELD(c.value, r.GetVarint64(), "metrics");
    ckpt.metrics.counters.push_back(std::move(c));
  }
  TPM_CKPT_FIELD(uint64_t num_gauges, r.GetVarint64(), "metrics");
  TPM_RETURN_NOT_OK(CheckCount("metrics", num_gauges, r));
  ckpt.metrics.gauges.reserve(num_gauges);
  for (uint64_t i = 0; i < num_gauges; ++i) {
    obs::GaugeSample g;
    TPM_CKPT_FIELD(g.name, r.GetLengthPrefixedString(), "metrics");
    TPM_CKPT_FIELD(g.value, r.GetSignedVarint64(), "metrics");
    ckpt.metrics.gauges.push_back(std::move(g));
  }
  TPM_CKPT_FIELD(uint64_t num_hists, r.GetVarint64(), "metrics");
  TPM_RETURN_NOT_OK(CheckCount("metrics", num_hists, r));
  ckpt.metrics.histograms.reserve(num_hists);
  for (uint64_t i = 0; i < num_hists; ++i) {
    obs::HistogramSample h;
    TPM_CKPT_FIELD(h.name, r.GetLengthPrefixedString(), "metrics");
    TPM_CKPT_FIELD(uint64_t num_bounds, r.GetVarint64(), "metrics");
    TPM_RETURN_NOT_OK(CheckCount("metrics", num_bounds, r));
    h.bounds.reserve(num_bounds);
    for (uint64_t k = 0; k < num_bounds; ++k) {
      TPM_CKPT_FIELD(uint64_t b, r.GetVarint64(), "metrics");
      h.bounds.push_back(b);
    }
    h.counts.reserve(num_bounds + 1);
    for (uint64_t k = 0; k < num_bounds + 1; ++k) {
      TPM_CKPT_FIELD(uint64_t c, r.GetVarint64(), "metrics");
      h.counts.push_back(c);
    }
    TPM_CKPT_FIELD(h.count, r.GetVarint64(), "metrics");
    TPM_CKPT_FIELD(h.sum, r.GetVarint64(), "metrics");
    ckpt.metrics.histograms.push_back(std::move(h));
  }
  if (r.remaining() != 0) {
    return CorruptAt("metrics", kMagicBytes + r.offset(),
                     "trailing bytes after TPMC payload");
  }
  return ckpt;
}

Status WriteCheckpointFile(const Checkpoint& ckpt, const std::string& path) {
  // All three sites fire before the atomic writer runs, so an injected
  // failure can never clobber an existing (older) checkpoint at `path`.
  if (IoFaultPoint("io.checkpoint.open")) {
    return Status::IOError("injected open failure for checkpoint '" + path +
                           "'");
  }
  if (IoFaultPoint("io.checkpoint.write")) {
    return Status::IOError("injected write failure for checkpoint '" + path +
                           "'");
  }
  if (IoFaultPoint("io.checkpoint.rename")) {
    return Status::IOError("injected rename failure for checkpoint '" + path +
                           "'");
  }
  const std::string payload = SerializeCheckpoint(ckpt);
  TPM_RETURN_NOT_OK(WriteFileAtomic(path, payload));
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("checkpoint.writes")->Increment();
  reg.GetCounter("checkpoint.write_bytes")->Increment(payload.size());
  return Status::OK();
}

Result<Checkpoint> ReadCheckpointFile(const std::string& path) {
  if (IoFaultPoint("io.checkpoint.open")) {
    return Status::IOError("injected open failure for checkpoint '" + path +
                           "'");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open checkpoint '" + path +
                           "' for reading");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IOError("read failed for checkpoint '" + path + "'");
  }
  auto ckpt = ParseCheckpoint(buf.str());
  if (ckpt.ok()) {
    obs::MetricsRegistry::Global().GetCounter("checkpoint.reads")->Increment();
  }
  return ckpt;
}

Status CheckpointWriter::Write(const Checkpoint& ckpt) {
  TPM_RETURN_NOT_OK(WriteCheckpointFile(ckpt, path_));
  ++writes_;
  since_last_.Reset();
  return Status::OK();
}

}  // namespace tpm
