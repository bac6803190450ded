#include <gtest/gtest.h>

#include "analysis/profile.h"
#include "datagen/quest.h"
#include "testing/test_util.h"

namespace tpm {
namespace {

using testing::RandomTinyDatabase;
using testing::Seq;

TEST(ProfileTest, RelationHistogramCountsArrangements) {
  IntervalDatabase db;
  testing::InternLetters(&db.dict(), 3);
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 5}, {'B', 3, 8}}));   // overlaps
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 2}, {'B', 4, 6}}));   // before
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 9}, {'B', 2, 4}}));   // contains

  RelationHistogram h = ComputeRelationHistogram(db);
  EXPECT_EQ(h.total_pairs, 3u);
  EXPECT_EQ(h.counts[static_cast<int>(AllenRelation::kOverlaps)], 1u);
  EXPECT_EQ(h.counts[static_cast<int>(AllenRelation::kBefore)], 1u);
  EXPECT_EQ(h.counts[static_cast<int>(AllenRelation::kDuringInv)], 1u);
  EXPECT_NEAR(h.ConcurrencyFraction(), 2.0 / 3.0, 1e-9);
  EXPECT_NE(h.ToString().find("overlaps"), std::string::npos);
}

TEST(ProfileTest, PairCapBoundsWork) {
  IntervalDatabase db = RandomTinyDatabase(59, 5, 3, 20.0, 100);
  RelationHistogram unlimited = ComputeRelationHistogram(db, 0);
  RelationHistogram capped = ComputeRelationHistogram(db, 5);
  EXPECT_LE(capped.total_pairs, 5u * db.size());
  EXPECT_LE(capped.total_pairs, unlimited.total_pairs);
}

TEST(ProfileTest, SymbolProfiles) {
  IntervalDatabase db;
  testing::InternLetters(&db.dict(), 3);
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 10}, {'A', 20, 30}, {'B', 5, 5}}));
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 10}}));

  auto profiles = ComputeSymbolProfiles(db);
  ASSERT_EQ(profiles.size(), 3u);
  // Sorted by sequence support: A (2) first, then B (1), then C (0).
  EXPECT_EQ(db.dict().Name(profiles[0].event), "A");
  EXPECT_EQ(profiles[0].sequence_support, 2u);
  EXPECT_EQ(profiles[0].occurrences, 3u);
  EXPECT_DOUBLE_EQ(profiles[0].avg_duration, 10.0);
  EXPECT_EQ(db.dict().Name(profiles[1].event), "B");
  EXPECT_DOUBLE_EQ(profiles[1].point_fraction, 1.0);
  EXPECT_EQ(profiles[2].occurrences, 0u);
}

TEST(ProfileTest, ReportMentionsEverything) {
  QuestConfig config;
  config.num_sequences = 100;
  config.num_symbols = 10;
  config.seed = 3;
  auto db = GenerateQuest(config);
  ASSERT_TRUE(db.ok());
  const std::string report = ProfileReport(*db, 5);
  EXPECT_NE(report.find("sequences=100"), std::string::npos);
  EXPECT_NE(report.find("top 5 symbols"), std::string::npos);
  EXPECT_NE(report.find("relation mix"), std::string::npos);
}

}  // namespace
}  // namespace tpm
