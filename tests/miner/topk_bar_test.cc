// Property test for the growth engines' top-K support bar
// (MinerOptions::top_k; docs/ARCHITECTURE.md, "Top-K support bar").
//
// A barred run returns a superset of the K best patterns, so ranking it
// with TopKBySupport must give exactly the top K of a full run: the same
// patterns, supports, and tie order. The sweep covers QUEST and realistic
// databases plus a hand-built one whose supports tie across the K-th cut,
// both pattern languages, all three growth algorithms, --threads 1/2/4 with
// and without --steal, and K from 1 to more than the pattern count. At one
// thread the bar rises in a fixed order, so search statistics repeat
// exactly from run to run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/postprocess.h"
#include "datagen/quest.h"
#include "datagen/realistic.h"
#include "io/checkpoint.h"
#include "miner/miner.h"
#include "testing/test_util.h"

namespace tpm {
namespace {

using testing::ComparableMetricsJson;

struct Input {
  std::string name;
  IntervalDatabase db;
  double minsup = 0.0;
};

IntervalDatabase QuestDb(uint64_t seed) {
  QuestConfig config;
  config.num_sequences = 60;
  config.avg_intervals_per_sequence = 6.0;
  config.num_symbols = 12;
  config.num_potential_patterns = 8;
  config.pattern_injection_prob = 0.7;
  config.seed = seed;
  auto db = GenerateQuest(config);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

IntervalDatabase AslDb() {
  AslConfig config;
  config.num_utterances = 40;
  auto db = GenerateAslLike(config);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

// Eight sequences: A in all of them, B..E in five each, placed so that many
// patterns share a support at and around every K-th cut.
IntervalDatabase TiesDb() {
  IntervalDatabase db;
  Dictionary& dict = db.dict();
  const EventId a = dict.Intern("A");
  const EventId b = dict.Intern("B");
  const EventId c = dict.Intern("C");
  const EventId d = dict.Intern("D");
  const EventId e = dict.Intern("E");
  for (int i = 0; i < 8; ++i) {
    EventSequence s;
    s.Add(a, 0, 4);
    if (i < 5) s.Add(b, 5, 9);
    if (i >= 1 && i < 6) s.Add(c, 6, 10);
    if (i >= 2 && i < 7) s.Add(d, 11, 13);
    if (i >= 3) s.Add(e, 12, 14);
    s.Normalize();
    db.AddSequence(std::move(s));
  }
  return db;
}

std::vector<Input> Inputs() {
  std::vector<Input> inputs;
  inputs.push_back({"quest-21", QuestDb(21), 0.1});
  inputs.push_back({"quest-22", QuestDb(22), 0.15});
  inputs.push_back({"asl", AslDb(), 0.25});
  inputs.push_back({"ties", TiesDb(), 2.0});
  return inputs;
}

template <typename PatternT>
std::vector<std::string> Ranked(std::vector<MinedPattern<PatternT>> patterns,
                                size_t k, const Dictionary& dict) {
  std::vector<std::string> out;
  for (const auto& mp : TopKBySupport(std::move(patterns), k)) {
    out.push_back(std::to_string(mp.support) + "\t" + mp.pattern.ToString(dict));
  }
  return out;
}

template <typename MinerT>
void CheckBar(const std::function<std::unique_ptr<MinerT>()>& make,
              const Input& in) {
  const std::string label = make()->name() + " on " + in.name;
  MinerOptions base;
  base.min_support = in.minsup;
  auto full = make()->Mine(in.db, base);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_FALSE(full->stats.truncated) << label;
  const size_t total = full->patterns.size();
  ASSERT_GT(total, 10u) << label << ": too few patterns to exercise the bar";

  std::vector<size_t> ks = {1, 7, 10, 100, total + 1};
  if (in.name == "ties") {
    // Every cut up to 40, so each tie run is straddled somewhere.
    ks = {total + 1};
    for (size_t k = 1; k <= std::min<size_t>(total, 40); ++k) ks.push_back(k);
  }
  for (size_t k : ks) {
    const std::vector<std::string> want =
        Ranked(full->patterns, k, in.db.dict());
    for (uint32_t threads : {1u, 2u, 4u}) {
      for (bool steal : {false, true}) {
        SCOPED_TRACE(label + " K=" + std::to_string(k) +
                     " threads=" + std::to_string(threads) +
                     (steal ? " --steal" : ""));
        MinerOptions options = base;
        options.top_k = k;
        options.threads = threads;
        options.steal = steal;
        auto barred = make()->Mine(in.db, options);
        ASSERT_TRUE(barred.ok()) << barred.status();
        EXPECT_FALSE(barred->stats.truncated);
        EXPECT_LE(barred->stats.nodes_expanded, full->stats.nodes_expanded);
        const MiningStats stats = barred->stats;
        EXPECT_EQ(Ranked(std::move(barred->patterns), k, in.db.dict()), want);
        if (threads != 1) continue;
        // Serial runs raise the bar in one fixed order.
        auto again = make()->Mine(in.db, options);
        ASSERT_TRUE(again.ok()) << again.status();
        EXPECT_EQ(again->stats.patterns_found, stats.patterns_found);
        EXPECT_EQ(again->stats.nodes_expanded, stats.nodes_expanded);
        EXPECT_EQ(again->stats.candidates_checked, stats.candidates_checked);
        EXPECT_EQ(again->stats.states_created, stats.states_created);
        EXPECT_EQ(ComparableMetricsJson(again->stats.metrics),
                  ComparableMetricsJson(stats.metrics));
      }
    }
  }
}

TEST(TopKBarTest, EndpointPTPMiner) {
  for (const Input& in : Inputs()) {
    CheckBar<EndpointMiner>(MakePTPMinerE, in);
  }
}

TEST(TopKBarTest, EndpointTPrefixSpan) {
  for (const Input& in : Inputs()) {
    CheckBar<EndpointMiner>(MakeTPrefixSpan, in);
  }
}

TEST(TopKBarTest, CoincidencePTPMiner) {
  for (const Input& in : Inputs()) {
    CheckBar<CoincidenceMiner>(MakePTPMinerC, in);
  }
}

TEST(TopKBarTest, CoincidenceCTMiner) {
  for (const Input& in : Inputs()) {
    CheckBar<CoincidenceMiner>(MakeCTMiner, in);
  }
}

// The bar must actually cut the search, and say so in prune.topk.hits; a
// run without it must not even register that counter.
TEST(TopKBarTest, PrunesAndCountsHits) {
  const IntervalDatabase db = QuestDb(21);
  MinerOptions options;
  options.min_support = 0.1;
  auto full = MakePTPMinerC()->Mine(db, options);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->stats.metrics.FindCounter("prune.topk.hits"), nullptr);

  options.top_k = 10;
  auto barred = MakePTPMinerC()->Mine(db, options);
  ASSERT_TRUE(barred.ok()) << barred.status();
  EXPECT_LT(barred->stats.nodes_expanded, full->stats.nodes_expanded / 2);
  EXPECT_LT(barred->stats.patterns_found, full->stats.patterns_found);
#ifndef TPM_OBS_DISABLED
  EXPECT_GT(barred->stats.metrics.CounterValue("prune.topk.hits"), 0u);
#endif
}

// Checkpointed units must bank their whole subtree, so a checkpointing run
// ignores top_k and returns the full pattern set.
TEST(TopKBarTest, OffUnderCheckpointing) {
  const IntervalDatabase db = QuestDb(21);
  MinerOptions options;
  options.min_support = 0.1;
  auto full = MakePTPMinerC()->Mine(db, options);
  ASSERT_TRUE(full.ok()) << full.status();

  CheckpointWriter writer(::testing::TempDir() + "/topk_bar.tpmc", 0.0);
  options.checkpoint_writer = &writer;
  options.top_k = 10;
  auto ckpt = MakePTPMinerC()->Mine(db, options);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();
  EXPECT_GT(writer.writes(), 0u);
  EXPECT_EQ(ckpt->stats.nodes_expanded, full->stats.nodes_expanded);
  EXPECT_EQ(testing::Render(*ckpt, db.dict()),
            testing::Render(*full, db.dict()));
  EXPECT_EQ(ckpt->stats.metrics.FindCounter("prune.topk.hits"), nullptr);
}

}  // namespace
}  // namespace tpm
