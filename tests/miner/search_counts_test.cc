// Pinned search counts: on one fixed QUEST database, both growth miners at
// --threads=1 under every pruning mask must expand, check and create exactly
// the numbers below. The other suites compare counts only across thread
// counts; these pin them absolutely, so a change to how the candidate scan
// memoizes its per-node decisions cannot shift a count unnoticed.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "datagen/quest.h"
#include "miner/coincidence_growth.h"
#include "miner/endpoint_growth.h"

namespace tpm {
namespace {

enum Lang { kEndpoint, kCoincidence };

struct PinnedCounts {
  Lang lang;
  uint32_t mask;  ///< bit 0 pair, bit 1 postfix, bit 2 validity pruning
  uint64_t nodes;
  uint64_t candidates;
  uint64_t states;
  uint64_t patterns;
  uint64_t pair_hits;
  uint64_t postfix_hits;
};

// Measured with the engine that memoized each node's extension decisions in
// an unordered_map, before the slot table replaced it.
const std::vector<PinnedCounts>& Golden() {
  static const std::vector<PinnedCounts> golden = {
      {kEndpoint, 0, 217, 3369, 17774, 51, 0, 0},
      {kEndpoint, 1, 217, 3369, 14384, 51, 1181, 0},
      {kEndpoint, 2, 217, 3369, 11726, 51, 0, 1870},
      {kEndpoint, 3, 217, 3369, 10617, 51, 276, 1870},
      {kEndpoint, 4, 217, 3369, 17774, 51, 0, 0},
      {kEndpoint, 5, 217, 3369, 14384, 51, 1181, 0},
      {kEndpoint, 6, 217, 3369, 11726, 51, 0, 1870},
      {kEndpoint, 7, 217, 3369, 10617, 51, 276, 1870},
      {kCoincidence, 0, 401, 8268, 153522, 400, 0, 0},
      {kCoincidence, 1, 401, 8268, 115016, 400, 3510, 0},
      {kCoincidence, 2, 401, 8268, 78815, 400, 0, 5863},
      {kCoincidence, 3, 401, 8268, 69963, 400, 444, 5863},
      {kCoincidence, 4, 401, 8268, 153522, 400, 0, 0},
      {kCoincidence, 5, 401, 8268, 115016, 400, 3510, 0},
      {kCoincidence, 6, 401, 8268, 78815, 400, 0, 5863},
      {kCoincidence, 7, 401, 8268, 69963, 400, 444, 5863},
  };
  return golden;
}

IntervalDatabase MakeDb() {
  QuestConfig config;
  config.num_sequences = 80;
  config.avg_intervals_per_sequence = 8.0;
  config.num_symbols = 16;
  config.num_potential_patterns = 10;
  config.pattern_injection_prob = 0.7;
  config.seed = 20;
  auto db = GenerateQuest(config);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

MinerOptions BaseOptions(uint32_t pruning_mask) {
  MinerOptions options;
  options.min_support = 0.15;
  options.threads = 1;
  options.pair_pruning = (pruning_mask & 1) != 0;
  options.postfix_pruning = (pruning_mask & 2) != 0;
  options.validity_pruning = (pruning_mask & 4) != 0;
  return options;
}

void ExpectCounts(const PinnedCounts& want, const MiningStats& got) {
  EXPECT_EQ(got.nodes_expanded, want.nodes);
  EXPECT_EQ(got.candidates_checked, want.candidates);
  EXPECT_EQ(got.states_created, want.states);
  EXPECT_EQ(got.patterns_found, want.patterns);
#ifndef TPM_OBS_DISABLED
  EXPECT_EQ(got.metrics.CounterValue("prune.pair.hits"), want.pair_hits);
  EXPECT_EQ(got.metrics.CounterValue("prune.postfix.hits"), want.postfix_hits);
#endif
}

TEST(PinnedSearchCountsTest, BothLanguagesEveryPruningMask) {
  const IntervalDatabase db = MakeDb();
  for (const PinnedCounts& want : Golden()) {
    SCOPED_TRACE(::testing::Message()
                 << (want.lang == kEndpoint ? "endpoint" : "coincidence")
                 << " mask=" << want.mask);
    const MinerOptions options = BaseOptions(want.mask);
    if (want.lang == kEndpoint) {
      auto r = MineEndpointGrowth(db, options, EndpointGrowthConfig{});
      ASSERT_TRUE(r.ok()) << r.status();
      ExpectCounts(want, r->stats);
    } else {
      auto r = MineCoincidenceGrowth(db, options, CoincidenceGrowthConfig{});
      ASSERT_TRUE(r.ok()) << r.status();
      ExpectCounts(want, r->stats);
    }
  }
}

}  // namespace
}  // namespace tpm
