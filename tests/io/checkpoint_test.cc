// TPMC checkpoint format tests: field-exact round-trips, writer gating,
// injected-fault atomicity, and the corruption-diagnostic contract (every
// Corruption pins a section and a byte offset, mirroring the TPMB reader;
// version skew yields NotImplemented; truncation and bit flips never crash
// and never parse).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "io/checkpoint.h"
#include "io/crc32.h"
#include "io/varint.h"
#include "testing/test_util.h"
#include "util/fault.h"
#include "util/rng.h"

namespace tpm {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// The shared corruption-diagnostic contract (every Corruption pins a
// section and a byte offset) lives in testing/test_util.h so this file,
// tests/io/fuzz_test.cc, and the Tier F harnesses assert the same phrasing.
using tpm::testing::ExpectWellFormedCorruption;

CheckpointRunKey FullKey() {
  CheckpointRunKey key;
  key.db_fingerprint = 0xdeadbeefcafef00dull;
  key.language = "endpoint";
  key.algo = "growth";
  key.min_support = 0.2;
  key.max_items = 7;
  key.max_length = 3;
  key.max_window = -42;  // signed varint path
  key.pair_pruning = true;
  key.postfix_pruning = false;
  key.validity_pruning = true;
  return key;
}

// A checkpoint exercising every section: two result patterns and a metrics
// snapshot with all three sample kinds.
Checkpoint FullCheckpoint() {
  Checkpoint ckpt;
  ckpt.key = FullKey();
  ckpt.total_units = 12;
  ckpt.completed_units = {3, 0, 9};
  ckpt.unit_pattern_counts = {1, 0, 1};  // groups the two patterns below
  CheckpointPatternRec a;
  a.support = 17;
  a.items = {1, 4, 2};
  a.offsets = {0, 2, 3};
  CheckpointPatternRec b;
  b.support = 5;
  b.items = {8};
  b.offsets = {0, 1};
  ckpt.patterns = {a, b};
  ckpt.metrics.counters.push_back({"search.candidates", 123});
  ckpt.metrics.counters.push_back({"prune.pair.hits", 45});
  ckpt.metrics.gauges.push_back({"miner.arena.peak_bytes", -7});
  obs::HistogramSample h;
  h.name = "search.nodes";
  h.bounds = {1, 2, 4};
  h.counts = {10, 20, 30, 40};
  h.count = 100;
  h.sum = 250;
  ckpt.metrics.histograms.push_back(h);
  ckpt.elapsed_seconds = 1.5;
  ckpt.time_budget_seconds = 60.0;
  return ckpt;
}

void ExpectPatternRecsEqual(const std::vector<CheckpointPatternRec>& a,
                            const std::vector<CheckpointPatternRec>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].support, b[i].support);
    EXPECT_EQ(a[i].items, b[i].items);
    EXPECT_EQ(a[i].offsets, b[i].offsets);
  }
}

TEST(CheckpointRoundTripTest, PreservesEveryField) {
  const Checkpoint ckpt = FullCheckpoint();
  auto parsed = ParseCheckpoint(SerializeCheckpoint(ckpt));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->key == ckpt.key);
  EXPECT_EQ(parsed->total_units, ckpt.total_units);
  EXPECT_EQ(parsed->completed_units, ckpt.completed_units);
  EXPECT_EQ(parsed->unit_pattern_counts, ckpt.unit_pattern_counts);
  ExpectPatternRecsEqual(parsed->patterns, ckpt.patterns);
  EXPECT_EQ(parsed->metrics.ToJson(), ckpt.metrics.ToJson());
  EXPECT_EQ(parsed->elapsed_seconds, ckpt.elapsed_seconds);
  EXPECT_EQ(parsed->time_budget_seconds, ckpt.time_budget_seconds);
}

TEST(CheckpointRoundTripTest, EmptyCheckpointRoundTrips) {
  Checkpoint empty;
  auto parsed = ParseCheckpoint(SerializeCheckpoint(empty));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->key == empty.key);
  EXPECT_TRUE(parsed->patterns.empty());
  EXPECT_TRUE(parsed->completed_units.empty());
}

TEST(CheckpointRoundTripTest, MinSupportIsBitExact) {
  // 0.1 has no finite binary expansion; identity comparison must still hold
  // after a round-trip because doubles travel as raw IEEE-754 bits.
  Checkpoint ckpt = FullCheckpoint();
  ckpt.key.min_support = 0.1;
  auto parsed = ParseCheckpoint(SerializeCheckpoint(ckpt));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->key == ckpt.key);
  EXPECT_TRUE(DiffRunKeys(parsed->key, ckpt.key).empty());
}

TEST(CheckpointWriterTest, FileRoundTripsThroughWriter) {
  const std::string path = TempPath("writer_roundtrip.tpmc");
  CheckpointWriter writer(path, 0.0);
  EXPECT_TRUE(writer.Due());  // interval 0: every unit is due
  const Checkpoint ckpt = FullCheckpoint();
  ASSERT_TRUE(writer.Write(ckpt).ok());
  EXPECT_EQ(writer.writes(), 1u);
  auto parsed = ReadCheckpointFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->key == ckpt.key);
  std::remove(path.c_str());
}

TEST(CheckpointWriterTest, LongIntervalGatesWrites) {
  // With a one-hour interval the gate is closed from construction on; only
  // the unconditional Write() (the final-checkpoint path) goes through.
  CheckpointWriter writer(TempPath("gated.tpmc"), 3600.0);
  EXPECT_FALSE(writer.Due());
  ASSERT_TRUE(writer.Write(FullCheckpoint()).ok());
  EXPECT_FALSE(writer.Due());  // re-armed, still closed
  EXPECT_EQ(writer.writes(), 1u);
  std::remove(writer.path().c_str());
}

TEST(CheckpointFaultTest, InjectedFaultsNeverClobberThePreviousCheckpoint) {
  const std::string path = TempPath("fault_atomic.tpmc");
  const Checkpoint original = FullCheckpoint();
  ASSERT_TRUE(WriteCheckpointFile(original, path).ok());
  Checkpoint newer = original;
  newer.completed_units.push_back(11);
  newer.unit_pattern_counts.push_back(0);
  for (const char* site :
       {"io.checkpoint.open", "io.checkpoint.write", "io.checkpoint.rename"}) {
    fault::ScopedFault fault(site, 1);
    const Status st = WriteCheckpointFile(newer, path);
    ASSERT_TRUE(st.IsIOError()) << site << ": " << st.ToString();
    EXPECT_NE(st.message().find("injected"), std::string::npos) << site;
    // The previous checkpoint must be intact: the sites fire before the
    // atomic temp-then-rename ever starts.
    auto parsed = ReadCheckpointFile(path);
    ASSERT_TRUE(parsed.ok()) << site << ": " << parsed.status();
    EXPECT_EQ(parsed->completed_units, original.completed_units) << site;
  }
  std::remove(path.c_str());
}

TEST(CheckpointFaultTest, InjectedOpenFaultFailsReads) {
  const std::string path = TempPath("fault_read.tpmc");
  ASSERT_TRUE(WriteCheckpointFile(FullCheckpoint(), path).ok());
  fault::ScopedFault fault("io.checkpoint.open", 1);
  EXPECT_TRUE(ReadCheckpointFile(path).status().IsIOError());
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, MissingFileIsIOError) {
  EXPECT_TRUE(
      ReadCheckpointFile(TempPath("does-not-exist.tpmc")).status().IsIOError());
}

TEST(CheckpointCorruptionTest, TruncationAtEveryLengthIsDetected) {
  const std::string original = SerializeCheckpoint(FullCheckpoint());
  for (size_t len = 0; len < original.size(); ++len) {
    auto parsed = ParseCheckpoint(original.substr(0, len));
    ASSERT_FALSE(parsed.ok()) << "length " << len;
    ExpectWellFormedCorruption(parsed.status(), len);
  }
}

TEST(CheckpointCorruptionTest, EverySingleBitFlipIsCaught) {
  // CRC-32 detects all single-bit errors, so an exhaustive sweep is cheap
  // and fully deterministic.
  const std::string original = SerializeCheckpoint(FullCheckpoint());
  for (size_t byte = 0; byte < original.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = original;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      auto parsed = ParseCheckpoint(mutated);
      ASSERT_FALSE(parsed.ok()) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(CheckpointCorruptionTest, RandomGarbageNeverCrashes) {
  Rng rng(20260807);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage(rng.Uniform(300), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Next());
    // Half the trials get the correct magic to reach deeper code paths.
    if (garbage.size() >= 4 && rng.Bernoulli(0.5)) {
      garbage.replace(0, 4, "TPMC");
    }
    auto parsed = ParseCheckpoint(garbage);  // must not crash
    if (!parsed.ok() && parsed.status().code() == StatusCode::kCorruption) {
      ExpectWellFormedCorruption(parsed.status(), garbage.size());
    }
  }
}

// Re-signs `body` (a payload without its CRC) so the parser gets past the
// checksum and exercises the per-section decoders.
std::string Resign(std::string body) {
  const uint32_t crc = Crc32(body.data(), body.size());
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  return body;
}

TEST(CheckpointCorruptionTest, ForgedCrcTruncationsPinSectionAndOffset) {
  // Truncate the payload at every byte boundary and re-sign: the failure now
  // surfaces from inside a section decoder, which must still name the
  // section and an in-bounds offset.
  const std::string original = SerializeCheckpoint(FullCheckpoint());
  const std::string body = original.substr(0, original.size() - 4);
  for (size_t len = 8; len < body.size(); ++len) {
    auto parsed = ParseCheckpoint(Resign(body.substr(0, len)));
    ASSERT_FALSE(parsed.ok()) << "length " << len;
    ExpectWellFormedCorruption(parsed.status(), len + 4);
  }
}

TEST(CheckpointCorruptionTest, VersionSkewIsNotImplemented) {
  const std::string original = SerializeCheckpoint(FullCheckpoint());
  // Version 3 encodes as the single varint byte right after the magic. The
  // previous layout (v2, which carried level-wise sections) and any future
  // one are refused outright.
  std::string body = original.substr(0, original.size() - 4);
  ASSERT_EQ(body[4], 3);
  for (int version : {2, 4}) {
    body[4] = static_cast<char>(version);
    const Status st = ParseCheckpoint(Resign(body)).status();
    ASSERT_EQ(st.code(), StatusCode::kNotImplemented) << st.ToString();
    EXPECT_NE(st.message().find("version " + std::to_string(version)),
              std::string::npos)
        << st.ToString();
  }
}

TEST(CheckpointCorruptionTest, UnitCountPatternMismatchIsRejected) {
  // A CRC-valid checkpoint whose per-unit counts do not sum to the pattern
  // section must fail structurally: a resume would otherwise misgroup the
  // pattern stream across units. Built by serializing a mismatched struct
  // directly (the writer-side TPM_CHECK only guards count/unit alignment).
  Checkpoint ckpt = FullCheckpoint();
  ckpt.unit_pattern_counts = {1, 0, 0};  // claims 1, section has 2
  const Status st = ParseCheckpoint(SerializeCheckpoint(ckpt)).status();
  ASSERT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("unit pattern counts"), std::string::npos)
      << st.ToString();
}

TEST(CheckpointCorruptionTest, UnitCountSumWraparoundIsRejected) {
  // Per-unit counts that wrap the uint64 sum back to patterns.size() must
  // not slip past the consistency check: the parser saturates the sum
  // instead of letting it wrap. Here 2^63 + 2^63 + 2 ≡ 2 (mod 2^64), which
  // equals the two patterns FullCheckpoint carries.
  Checkpoint ckpt = FullCheckpoint();
  ckpt.unit_pattern_counts = {1ull << 63, 1ull << 63, 2};
  const std::string buffer = SerializeCheckpoint(ckpt);
  const Status st = ParseCheckpoint(buffer).status();
  ASSERT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("unit pattern counts"), std::string::npos)
      << st.ToString();
  ExpectWellFormedCorruption(st, buffer.size());
}

// Locates the byte span of the per-unit pattern counts in a serialized
// FullCheckpoint by diffing against a serialization that differs only in
// those counts. The span is the smallest range covering every differing
// byte before the CRC trailer.
std::pair<size_t, size_t> UnitCountByteSpan() {
  const std::string base = SerializeCheckpoint(FullCheckpoint());
  Checkpoint changed = FullCheckpoint();
  changed.unit_pattern_counts = {0, 1, 1};  // same sum, different bytes
  const std::string other = SerializeCheckpoint(changed);
  EXPECT_EQ(base.size(), other.size());
  size_t first = std::string::npos;
  size_t last = 0;
  for (size_t i = 0; i + 4 < base.size(); ++i) {  // exclude the CRC trailer
    if (base[i] != other[i]) {
      if (first == std::string::npos) first = i;
      last = i;
    }
  }
  EXPECT_NE(first, std::string::npos);
  return {first, last + 1};
}

TEST(CheckpointCorruptionTest, ForgedUnitCountBitFlipsAreStructurallyCaught) {
  // The CRC sweep above already rejects these mutations; re-signing forces
  // the per-unit-count decoder itself to catch them. Any single-bit flip
  // inside the count varints either breaks a downstream section bound or
  // desynchronizes the claimed sum from the pattern section — with only two
  // patterns present, no flipped count can re-balance the total.
  const std::string original = SerializeCheckpoint(FullCheckpoint());
  const auto [begin, end] = UnitCountByteSpan();
  std::string body = original.substr(0, original.size() - 4);
  for (size_t byte = begin; byte < end; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = body;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      auto parsed = ParseCheckpoint(Resign(mutated));
      ASSERT_FALSE(parsed.ok()) << "byte " << byte << " bit " << bit;
      ExpectWellFormedCorruption(parsed.status(), mutated.size() + 4);
    }
  }
}

TEST(CheckpointCorruptionTest, MalformedSliceOffsetsAreRejected) {
  // The serializer writes whatever it is given; the parser must reject
  // offsets that do not bracket the items monotonically.
  Checkpoint ckpt;
  CheckpointPatternRec rec;
  rec.support = 1;
  rec.items = {1, 2, 3};
  rec.offsets = {0, 5};  // back() != items.size()
  ckpt.patterns = {rec};
  const Status st = ParseCheckpoint(SerializeCheckpoint(ckpt)).status();
  ASSERT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("malformed slice offsets"), std::string::npos);
}

TEST(CheckpointDiffTest, EqualKeysProduceNoDiffs) {
  EXPECT_TRUE(DiffRunKeys(FullKey(), FullKey()).empty());
  EXPECT_TRUE(FullKey() == FullKey());
}

TEST(CheckpointDiffTest, NamesEveryDifferingField) {
  const CheckpointRunKey have = FullKey();
  CheckpointRunKey want = have;
  want.db_fingerprint ^= 1;
  want.language = "coincidence";
  want.algo = "growth-physical";
  want.min_support = 0.5;
  want.max_items = 9;
  want.max_length = 4;
  want.max_window = 100;
  want.pair_pruning = !have.pair_pruning;
  want.postfix_pruning = !have.postfix_pruning;
  want.validity_pruning = !have.validity_pruning;
  const std::vector<std::string> diffs = DiffRunKeys(have, want);
  const char* kFields[] = {"db_fingerprint", "language",        "algo",
                           "min_support",    "max_items",       "max_length",
                           "max_window",     "pair_pruning",    "postfix_pruning",
                           "validity_pruning"};
  ASSERT_EQ(diffs.size(), sizeof(kFields) / sizeof(kFields[0]));
  for (size_t i = 0; i < diffs.size(); ++i) {
    EXPECT_EQ(diffs[i].rfind(kFields[i], 0), 0u) << diffs[i];
    EXPECT_NE(diffs[i].find("checkpoint "), std::string::npos) << diffs[i];
    EXPECT_NE(diffs[i].find("run "), std::string::npos) << diffs[i];
  }
}

TEST(FingerprintTest, StableForIdenticalDatabases) {
  IntervalDatabase a;
  IntervalDatabase b;
  a.AddSequence(testing::Seq(&a.dict(), {{'A', 0, 5}, {'B', 2, 8}}));
  b.AddSequence(testing::Seq(&b.dict(), {{'A', 0, 5}, {'B', 2, 8}}));
  EXPECT_EQ(FingerprintDatabase(a), FingerprintDatabase(b));
}

TEST(FingerprintTest, SensitiveToIntervalAndOrderChanges) {
  IntervalDatabase base;
  base.AddSequence(testing::Seq(&base.dict(), {{'A', 0, 5}, {'B', 2, 8}}));
  base.AddSequence(testing::Seq(&base.dict(), {{'C', 1, 3}}));
  const uint64_t fp = FingerprintDatabase(base);

  IntervalDatabase shifted;
  shifted.AddSequence(testing::Seq(&shifted.dict(), {{'A', 0, 6}, {'B', 2, 8}}));
  shifted.AddSequence(testing::Seq(&shifted.dict(), {{'C', 1, 3}}));
  EXPECT_NE(FingerprintDatabase(shifted), fp);

  IntervalDatabase reordered;
  reordered.dict().Intern("A");
  reordered.dict().Intern("B");
  reordered.AddSequence(testing::Seq(&reordered.dict(), {{'C', 1, 3}}));
  reordered.AddSequence(
      testing::Seq(&reordered.dict(), {{'A', 0, 5}, {'B', 2, 8}}));
  EXPECT_NE(FingerprintDatabase(reordered), fp);

  IntervalDatabase renamed;
  renamed.AddSequence(testing::Seq(&renamed.dict(), {{'A', 0, 5}, {'D', 2, 8}}));
  renamed.AddSequence(testing::Seq(&renamed.dict(), {{'C', 1, 3}}));
  EXPECT_NE(FingerprintDatabase(renamed), fp);
}

}  // namespace
}  // namespace tpm
