#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "datagen/quest.h"
#include "io/binary_format.h"
#include "io/crc32.h"
#include "io/loader.h"
#include "io/text_format.h"
#include "io/varint.h"
#include "obs/metrics.h"
#include "testing/test_util.h"
#include "util/fault.h"

namespace tpm {
namespace {

using testing::Seq;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

IntervalDatabase SampleDb() {
  IntervalDatabase db;
  tpm::testing::InternLetters(&db.dict(), 3);
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 5}, {'B', 3, 9}}));
  db.AddSequence(Seq(&db.dict(), {{'C', 2, 2}}));
  db.AddSequence(Seq(&db.dict(), {{'A', -4, -1}, {'B', 0, 0}}));  // negatives
  return db;
}

bool SameContents(const IntervalDatabase& a, const IntervalDatabase& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto& sa = a[i].intervals();
    const auto& sb = b[i].intervals();
    if (sa.size() != sb.size()) return false;
    for (size_t k = 0; k < sa.size(); ++k) {
      if (a.dict().Name(sa[k].event) != b.dict().Name(sb[k].event)) return false;
      if (sa[k].start != sb[k].start || sa[k].finish != sb[k].finish) return false;
    }
  }
  return true;
}

TEST(VarintTest, RoundTripCorpus) {
  std::string buf;
  const uint64_t values[] = {0, 1, 127, 128, 300, 1ull << 35, ~0ull};
  for (uint64_t v : values) PutVarint64(&buf, v);
  const int64_t signed_values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t v : signed_values) PutSignedVarint64(&buf, v);

  VarintReader r(buf.data(), buf.size());
  for (uint64_t v : values) {
    auto got = r.GetVarint64();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  for (int64_t v : signed_values) {
    auto got = r.GetSignedVarint64();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.GetVarint64().status().IsCorruption());  // exhausted
}

TEST(VarintTest, TruncatedVarintIsCorruption) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  VarintReader r(buf.data(), buf.size());
  EXPECT_TRUE(r.GetVarint64().status().IsCorruption());
}

TEST(Crc32Test, KnownVectors) {
  // Standard check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Chaining equals one-shot.
  const char* data = "hello world";
  const uint32_t whole = Crc32(data, 11);
  uint32_t chained = Crc32(data, 5);
  chained = Crc32(data + 5, 6, chained);
  EXPECT_EQ(chained, whole);
}

TEST(TisdTest, RoundTrip) {
  const IntervalDatabase db = SampleDb();
  const std::string path = TempPath("t.tisd");
  ASSERT_TRUE(WriteTisdFile(db, path).ok());
  auto back = ReadTisdFile(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(SameContents(db, *back));
}

TEST(TisdTest, ParsesCommentsAndBlanks) {
  auto db = ReadTisdString(
      "# header comment\n"
      "\n"
      "s1 Fever 0 5\n"
      "s1 Rash 3 9\n"
      "  # indented comment\n"
      "s2 Fever 1 2\n");
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->size(), 2u);
  EXPECT_EQ(db->TotalIntervals(), 3u);
  EXPECT_EQ(db->dict().size(), 2u);
}

TEST(TisdTest, RejectsBadRows) {
  EXPECT_FALSE(ReadTisdString("s1 A 1\n").ok());          // too few fields
  EXPECT_FALSE(ReadTisdString("s1 A x 5\n").ok());        // non-numeric
  EXPECT_FALSE(ReadTisdString("s1 A 9 5\n").ok());        // start > finish
  EXPECT_FALSE(ReadTisdString("s1 A 1 2 3 4\n").ok());    // too many fields
}

TEST(TisdTest, ConflictDetectionAndRepair) {
  const std::string text = "s1 A 0 5\ns1 A 3 9\n";
  EXPECT_FALSE(ReadTisdString(text).ok());
  TextReadOptions options;
  options.merge_conflicts = true;
  auto db = ReadTisdString(text, options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->TotalIntervals(), 1u);
}

TEST(CsvTest, RoundTrip) {
  const IntervalDatabase db = SampleDb();
  const std::string path = TempPath("t.csv");
  ASSERT_TRUE(WriteCsvFile(db, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(SameContents(db, *back));
}

TEST(CsvTest, HeaderColumnOrderIsFlexible) {
  auto db = ReadCsvString(
      "start,finish,event,sequence\n"
      "0,5,Fever,p1\n"
      "3,9,Rash,p1\n");
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->TotalIntervals(), 2u);
}

TEST(CsvTest, MissingHeaderRejected) {
  auto db = ReadCsvString("p1,Fever,0,5\n");
  EXPECT_FALSE(db.ok());
}

TEST(BinaryTest, RoundTripSmall) {
  const IntervalDatabase db = SampleDb();
  const std::string buffer = SerializeBinary(db);
  auto back = ParseBinary(buffer);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(SameContents(db, *back));
}

TEST(BinaryTest, RoundTripLargeGenerated) {
  QuestConfig config;
  config.num_sequences = 300;
  config.num_symbols = 50;
  config.seed = 5;
  auto db = GenerateQuest(config);
  ASSERT_TRUE(db.ok());
  const std::string buffer = SerializeBinary(*db);
  auto back = ParseBinary(buffer);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(SameContents(*db, *back));
  // Compact: well under text size (4 bytes/interval ballpark + dict).
  EXPECT_LT(buffer.size(), db->TotalIntervals() * 8 + 2000);
}

TEST(BinaryTest, DetectsCorruption) {
  const IntervalDatabase db = SampleDb();
  std::string buffer = SerializeBinary(db);
  // Flip a payload byte.
  buffer[buffer.size() / 2] ^= 0x40;
  EXPECT_TRUE(ParseBinary(buffer).status().IsCorruption());
}

TEST(BinaryTest, DetectsTruncation) {
  const IntervalDatabase db = SampleDb();
  std::string buffer = SerializeBinary(db);
  buffer.resize(buffer.size() - 3);
  EXPECT_TRUE(ParseBinary(buffer).status().IsCorruption());
}

TEST(BinaryTest, RejectsBadMagic) {
  EXPECT_TRUE(ParseBinary("NOPE....").status().IsCorruption());
  EXPECT_TRUE(ParseBinary("").status().IsCorruption());
}

TEST(LoaderTest, DispatchesOnExtension) {
  const IntervalDatabase db = SampleDb();
  for (const char* name : {"x.tisd", "x.csv", "x.tpmb", "x.bin", "x.txt"}) {
    const std::string path = TempPath(name);
    ASSERT_TRUE(SaveDatabase(db, path).ok()) << path;
    auto back = LoadDatabase(path);
    ASSERT_TRUE(back.ok()) << path << ": " << back.status();
    EXPECT_TRUE(SameContents(db, *back)) << path;
  }
  EXPECT_TRUE(LoadDatabase("x.unknown").status().IsInvalidArgument());
  EXPECT_TRUE(SaveDatabase(db, "x.unknown").IsInvalidArgument());
  EXPECT_TRUE(LoadDatabase(TempPath("does-not-exist.tisd")).status().IsIOError());
}

TEST(LoaderTest, ExtensionsAreCaseInsensitive) {
  const IntervalDatabase db = SampleDb();
  for (const char* name : {"up.TISD", "up.CSV", "up.TpMb", "up.BIN", "up.Txt"}) {
    const std::string path = TempPath(name);
    ASSERT_TRUE(SaveDatabase(db, path).ok()) << path;
    auto back = LoadDatabase(path);
    ASSERT_TRUE(back.ok()) << path << ": " << back.status();
    EXPECT_TRUE(SameContents(db, *back)) << path;
  }
}

TEST(LoaderTest, UnknownExtensionEnumeratesSupported) {
  const Status st = LoadDatabase("x.parquet").status();
  EXPECT_TRUE(st.IsInvalidArgument());
  for (const char* ext : {".tisd", ".txt", ".csv", ".tpmb", ".bin"}) {
    EXPECT_NE(st.message().find(ext), std::string::npos) << st.ToString();
  }
}

TEST(LoaderTest, NoExtensionIsDiagnosedAsSuch) {
  const IntervalDatabase db = SampleDb();
  for (const std::string& path : {std::string("noext"), TempPath("noext"),
                                  TempPath("dotted.dir") + "/noext"}) {
    const Status st = LoadDatabase(path).status();
    EXPECT_TRUE(st.IsInvalidArgument()) << path;
    EXPECT_NE(st.message().find("no file extension"), std::string::npos)
        << path << ": " << st.ToString();
    EXPECT_TRUE(SaveDatabase(db, path).IsInvalidArgument()) << path;
  }
}

TEST(RecoveryTest, SkipLineRecoversBadRows) {
  TextReadOptions options;
  options.on_error = TextErrorMode::kSkipLine;
  auto db = ReadTisdString(
      "s1 A 1\n"         // too few fields
      "s1 A 0 5\n"       // good
      "s1 B x 5\n"       // non-numeric
      "s2 A 9 5\n"       // start > finish
      "s2 B 1 2 3 4\n"   // too many fields
      "s2 C 1 2\n",      // good
      options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->size(), 2u);
  EXPECT_EQ(db->TotalIntervals(), 2u);
}

TEST(RecoveryTest, SkipLineRecoversBadCsvRows) {
  TextReadOptions options;
  options.on_error = TextErrorMode::kSkipLine;
  auto db = ReadCsvString(
      "sequence,event,start,finish\n"
      "p1,Fever,0,5\n"
      "p1,Rash,bad,9\n"
      "p1,Rash\n"
      "p2,Fever,1,2\n",
      options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->size(), 2u);
  EXPECT_EQ(db->TotalIntervals(), 2u);
}

TEST(RecoveryTest, FailModeStillRejects) {
  TextReadOptions options;
  options.on_error = TextErrorMode::kFail;
  EXPECT_FALSE(ReadTisdString("s1 A 1\n", options).ok());
}

TEST(RecoveryTest, MissingCsvHeaderIsStructuralEvenWhenSkipping) {
  TextReadOptions options;
  options.on_error = TextErrorMode::kSkipLine;
  EXPECT_FALSE(ReadCsvString("p1,Fever,0,5\n", options).ok());
}

#ifndef TPM_OBS_DISABLED
// io.text.read_lines counts lines the way getline splits them, and
// io.text.read_bytes the bytes consumed: the input's size, read to the end.
TEST(TextCountersTest, LinesAndBytesMatchTheInput) {
  struct Case {
    const char* name;
    std::string csv;
    std::string tisd;
    uint64_t lines;
  };
  const Case cases[] = {
      {"trailing newline", "sequence,event,start,finish\n0,A,1,2\n",
       "# header\n0 A 1 2\n", 2},
      {"no final newline", "sequence,event,start,finish\n0,A,1,2",
       "# header\n0 A 1 2", 2},
      {"crlf", "sequence,event,start,finish\r\n0,A,1,2\r\n1,B,3,4",
       "# header\r\n0 A 1 2\r\n1 B 3 4", 3},
      {"empty", "", "", 0},
  };
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* lines = reg.GetCounter("io.text.read_lines");
  obs::Counter* bytes = reg.GetCounter("io.text.read_bytes");
  for (const Case& c : cases) {
    for (const bool csv : {true, false}) {
      const std::string& text = csv ? c.csv : c.tisd;
      SCOPED_TRACE(std::string(c.name) + (csv ? " csv" : " tisd"));
      const std::string path = TempPath(csv ? "counters.csv" : "counters.tisd");
      {
        std::ofstream out(path, std::ios::binary);
        out << text;
      }
      for (const bool from_file : {false, true}) {
        const uint64_t lines0 = lines->Value();
        const uint64_t bytes0 = bytes->Value();
        auto read = [&] {
          if (from_file) return LoadDatabase(path);
          return csv ? ReadCsvString(text) : ReadTisdString(text);
        };
        const Result<IntervalDatabase> db = read();
        // Only the empty CSV fails: it has no header.
        EXPECT_EQ(db.ok(), !(csv && text.empty())) << db.status();
        EXPECT_EQ(lines->Value() - lines0, c.lines);
        EXPECT_EQ(bytes->Value() - bytes0, text.size());
      }
      std::remove(path.c_str());
    }
  }
}
#endif  // TPM_OBS_DISABLED

TEST(CorruptionTest, ReportsSectionAndOffset) {
  const IntervalDatabase db = SampleDb();
  std::string buffer = SerializeBinary(db);

  const Status bad_magic = ParseBinary("NOPE....").status();
  EXPECT_NE(bad_magic.message().find("section magic"), std::string::npos)
      << bad_magic.ToString();
  EXPECT_NE(bad_magic.message().find("byte offset 0"), std::string::npos)
      << bad_magic.ToString();

  std::string flipped = buffer;
  flipped[flipped.size() / 2] ^= 0x40;
  const Status bad_crc = ParseBinary(flipped).status();
  EXPECT_NE(bad_crc.message().find("section trailing CRC"), std::string::npos)
      << bad_crc.ToString();
}

TEST(AtomicWriteTest, NoTempFileSurvivesAnInjectedFault) {
  const IntervalDatabase db = SampleDb();
  const std::string path = TempPath("atomic.tpmb");
  ASSERT_TRUE(SaveDatabase(db, path).ok());
  const std::string before = SerializeBinary(db);

  for (const char* site : {"io.open_write", "io.write", "io.fsync", "io.rename"}) {
    fault::ScopedFault fault(site, 1);
    IntervalDatabase other;  // different contents: an empty database
    const Status st = SaveDatabase(other, path);
    EXPECT_FALSE(st.ok()) << site;
    // The destination is untouched and no temp file is left behind.
    auto back = LoadDatabase(path);
    ASSERT_TRUE(back.ok()) << site << ": " << back.status();
    EXPECT_TRUE(SameContents(db, *back)) << site;
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << site << " left " << path << ".tmp behind";
  }
}

}  // namespace
}  // namespace tpm
