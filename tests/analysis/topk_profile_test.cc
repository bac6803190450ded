#include <gtest/gtest.h>

#include "analysis/postprocess.h"
#include "analysis/profile.h"
#include "analysis/topk.h"
#include "datagen/quest.h"
#include "miner/miner.h"
#include "testing/test_util.h"

namespace tpm {
namespace {

using testing::RandomTinyDatabase;
using testing::Seq;

TEST(TopKTest, FindsExactlyTheKBestPatterns) {
  IntervalDatabase db = RandomTinyDatabase(55, 60, 5, 4.0, 25);
  MinerOptions options;

  TopKStats stats;
  auto topk = MineTopKEndpoint(db, 10, options, /*min_items=*/0, &stats);
  ASSERT_TRUE(topk.ok()) << topk.status();
  ASSERT_EQ(topk->patterns.size(), 10u);
  EXPECT_GE(stats.rounds, 1u);
  EXPECT_EQ(stats.kth_support, topk->patterns.back().support);

  // Cross-check against an exhaustive run at the discovered cut.
  MinerOptions full;
  full.min_support = static_cast<double>(stats.kth_support);
  auto exhaustive = MakePTPMinerE()->Mine(db, full);
  ASSERT_TRUE(exhaustive.ok());
  // Supports sorted descending; the k-th best support in the exhaustive run
  // must equal the top-k cut.
  std::vector<SupportCount> supports;
  for (const auto& mp : exhaustive->patterns) supports.push_back(mp.support);
  std::sort(supports.begin(), supports.end(), std::greater<>());
  ASSERT_GE(supports.size(), 10u);
  EXPECT_EQ(supports[9], topk->patterns.back().support);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(topk->patterns[i].support, supports[i]);
  }
}

TEST(TopKTest, MinItemsSkipsSingletons) {
  IntervalDatabase db = RandomTinyDatabase(56, 60, 4, 4.0, 25);
  MinerOptions options;
  auto topk = MineTopKEndpoint(db, 5, options, /*min_items=*/4);
  ASSERT_TRUE(topk.ok()) << topk.status();
  for (const auto& mp : topk->patterns) {
    EXPECT_GE(mp.pattern.num_items(), 4u);
  }
  EXPECT_LE(topk->patterns.size(), 5u);
}

TEST(TopKTest, CoincidenceLanguage) {
  IntervalDatabase db = RandomTinyDatabase(57, 40, 4, 4.0, 20);
  MinerOptions options;
  options.max_items = 4;
  auto topk = MineTopKCoincidence(db, 8, options);
  ASSERT_TRUE(topk.ok()) << topk.status();
  ASSERT_EQ(topk->patterns.size(), 8u);
  for (size_t i = 1; i < topk->patterns.size(); ++i) {
    EXPECT_GE(topk->patterns[i - 1].support, topk->patterns[i].support);
  }
}

TEST(TopKTest, KLargerThanUniverse) {
  IntervalDatabase db;
  testing::InternLetters(&db.dict(), 1);
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 2}}));
  MinerOptions options;
  auto topk = MineTopKEndpoint(db, 100, options);
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk->patterns.size(), 1u);  // only <{A+}{A-}> exists
}

// The back-off's last round mines at absolute support 1. Passing that as
// min_support = 1.0 read as the fraction 100% (support |D|) and kept only
// the one pattern in every sequence.
TEST(TopKTest, BackOffReachesAbsoluteSupportOne) {
  IntervalDatabase db;
  testing::InternLetters(&db.dict(), 3);
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 5}, {'B', 6, 8}}));
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 5}, {'B', 6, 8}}));
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 5}, {'C', 6, 8}}));
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 5}}));

  TopKStats stats;
  auto topk = MineTopKCoincidence(db, 5, MinerOptions{}, /*min_items=*/0,
                                  &stats);
  ASSERT_TRUE(topk.ok()) << topk.status();
  EXPECT_EQ(stats.final_threshold, 1u);
  EXPECT_EQ(stats.rounds, 2u);  // threshold 2 finds 3 patterns, then 1

  MinerOptions full;
  full.min_support = 0.25;  // absolute 1 of 4
  auto exhaustive = MakePTPMinerC()->Mine(db, full);
  ASSERT_TRUE(exhaustive.ok()) << exhaustive.status();
  const auto want = TopKBySupport(std::move(exhaustive->patterns), 5);
  ASSERT_EQ(want.size(), 5u);
  EXPECT_EQ(topk->patterns, want);
}

TEST(TopKTest, RejectsZeroK) {
  IntervalDatabase db = RandomTinyDatabase(58, 5, 2, 2.0, 10);
  EXPECT_FALSE(MineTopKEndpoint(db, 0, MinerOptions{}).ok());
}

TEST(TopKTest, EmptyDatabase) {
  IntervalDatabase db;
  auto topk = MineTopKEndpoint(db, 5, MinerOptions{});
  ASSERT_TRUE(topk.ok());
  EXPECT_TRUE(topk->patterns.empty());
}

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
