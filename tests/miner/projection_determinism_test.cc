// Determinism suite for the growth engine's interchangeable execution
// configurations: on random QUEST databases, the mined (pattern, support)
// stream must be byte-identical between --threads=1 and any worker count
// (with and without --steal), for both pattern languages and every pruning
// on/off combination. The thread sweep pins the scheduler/worker/merger
// contract (docs/ARCHITECTURE.md): identical patterns in identical emission
// order AND identical merged metrics for any thread count and completion
// order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "datagen/quest.h"
#include "miner/coincidence_growth.h"
#include "miner/endpoint_growth.h"
#include "miner/miner.h"
#include "obs/stats_domain.h"
#include "testing/test_util.h"

namespace tpm {
namespace {

using testing::ComparableMetricsJson;
using testing::EmissionOrderRender;
using testing::Render;

constexpr uint32_t kNumDatabases = 25;

IntervalDatabase MakeDb(uint64_t seed) {
  QuestConfig config;
  config.num_sequences = 30;
  config.avg_intervals_per_sequence = 6.0;
  config.num_symbols = 12;
  config.num_potential_patterns = 8;
  config.pattern_injection_prob = 0.7;
  config.seed = seed;
  auto db = GenerateQuest(config);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

MinerOptions BaseOptions(uint32_t pruning_mask) {
  MinerOptions options;
  options.min_support = 0.2;
  options.pair_pruning = (pruning_mask & 1) != 0;
  options.postfix_pruning = (pruning_mask & 2) != 0;
  options.validity_pruning = (pruning_mask & 4) != 0;
  return options;
}

class ProjectionDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(QuestSeeds, ProjectionDeterminismTest,
                         ::testing::Range(uint64_t{1},
                                          uint64_t{kNumDatabases + 1}));

// Under a window constraint the pruned pseudo-projection search must still
// match the physical-projection baselines (TPrefixSpan / CTMiner), which
// copy every postfix and run without pruning.
TEST_P(ProjectionDeterminismTest, WindowConstraintAgreesAcrossBackends) {
  const IntervalDatabase db = MakeDb(GetParam());
  MinerOptions options = BaseOptions(7);
  options.max_window = 40;
  auto ep = MineEndpointGrowth(db, options, GrowthConfig{});
  auto cp = MineCoincidenceGrowth(db, options, GrowthConfig{});
  ASSERT_TRUE(ep.ok()) << ep.status();
  ASSERT_TRUE(cp.ok()) << cp.status();
  auto ec = MakeTPrefixSpan()->Mine(db, options);
  auto cc = MakeCTMiner()->Mine(db, options);
  ASSERT_TRUE(ec.ok()) << ec.status();
  ASSERT_TRUE(cc.ok()) << cc.status();
  ep->SortCanonically();
  ec->SortCanonically();
  cp->SortCanonically();
  cc->SortCanonically();
  EXPECT_EQ(Render(*ep, db.dict()), Render(*ec, db.dict()));
  EXPECT_EQ(Render(*cp, db.dict()), Render(*cc, db.dict()));
}

// MiningStats' state and candidate counts are summed from the same per-item
// tallies as the search.* metrics, so on a fresh run the two must agree.
template <typename ResultT>
void ExpectCountsMatchMetrics(const ResultT& result, uint32_t threads) {
#ifndef TPM_OBS_DISABLED
  EXPECT_EQ(result.stats.states_created,
            result.stats.metrics.CounterValue("search.states"))
      << "threads " << threads;
  EXPECT_EQ(result.stats.candidates_checked,
            result.stats.metrics.CounterValue("search.candidates"))
      << "threads " << threads;
#else
  (void)result;
  (void)threads;
#endif
}

// --threads sweep: mining with 2/4/8 workers (and with --steal splitting
// heavyweight subtrees) must be byte-identical to --threads=1 — patterns in
// emission order AND the full merged metrics delta (modulo the memory /
// scheduling-attribution families every equivalent run may vary in).
TEST_P(ProjectionDeterminismTest, EndpointThreadCountsAgree) {
  const IntervalDatabase db = MakeDb(GetParam());
  for (uint32_t mask = 0; mask < 8; ++mask) {
    MinerOptions options = BaseOptions(mask);
    obs::StatsDomain base_domain("t1");
    options.stats_domain = &base_domain;
    auto single = MineEndpointGrowth(db, options, GrowthConfig{});
    ASSERT_TRUE(single.ok()) << single.status();
    ExpectCountsMatchMetrics(*single, 1);
    const std::string want = EmissionOrderRender(*single, db.dict());
    const std::string want_metrics =
        ComparableMetricsJson(single->stats.metrics);
    for (uint32_t threads : {2u, 4u, 8u}) {
      for (bool steal : {false, true}) {
        MinerOptions par = BaseOptions(mask);
        par.threads = threads;
        par.steal = steal;
        std::string domain_name = "t";
        domain_name += std::to_string(threads);
        obs::StatsDomain domain(domain_name);
        par.stats_domain = &domain;
        auto result = MineEndpointGrowth(db, par, GrowthConfig{});
        ASSERT_TRUE(result.ok()) << result.status();
        ExpectCountsMatchMetrics(*result, threads);
        EXPECT_EQ(EmissionOrderRender(*result, db.dict()), want)
            << "mask " << mask << " threads " << threads << " steal " << steal;
        EXPECT_EQ(ComparableMetricsJson(result->stats.metrics), want_metrics)
            << "mask " << mask << " threads " << threads << " steal " << steal;
        EXPECT_EQ(result->stats.nodes_expanded, single->stats.nodes_expanded);
        EXPECT_EQ(result->stats.states_created, single->stats.states_created);
      }
    }
  }
}

TEST_P(ProjectionDeterminismTest, CoincidenceThreadCountsAgree) {
  const IntervalDatabase db = MakeDb(GetParam());
  for (uint32_t mask = 0; mask < 4; ++mask) {
    MinerOptions options = BaseOptions(mask);
    obs::StatsDomain base_domain("t1");
    options.stats_domain = &base_domain;
    auto single = MineCoincidenceGrowth(db, options, GrowthConfig{});
    ASSERT_TRUE(single.ok()) << single.status();
    ExpectCountsMatchMetrics(*single, 1);
    const std::string want = EmissionOrderRender(*single, db.dict());
    const std::string want_metrics =
        ComparableMetricsJson(single->stats.metrics);
    for (uint32_t threads : {2u, 4u, 8u}) {
      MinerOptions par = BaseOptions(mask);
      par.threads = threads;
      par.steal = (threads == 8);  // exercise the steal path at the top end
      std::string domain_name = "t";
      domain_name += std::to_string(threads);
      obs::StatsDomain domain(domain_name);
      par.stats_domain = &domain;
      auto result = MineCoincidenceGrowth(db, par, GrowthConfig{});
      ASSERT_TRUE(result.ok()) << result.status();
      ExpectCountsMatchMetrics(*result, threads);
      EXPECT_EQ(EmissionOrderRender(*result, db.dict()), want)
          << "mask " << mask << " threads " << threads;
      EXPECT_EQ(ComparableMetricsJson(result->stats.metrics), want_metrics)
          << "mask " << mask << " threads " << threads;
    }
  }
}

// A QUEST database of `num_sequences` sequences with an empty sequence
// before every third one (and at the end), so the preamble's contiguous
// ranges see sequence counts below, equal to and not divisible by the
// thread count, and ranges holding only empty sequences.
IntervalDatabase MakeRaggedDb(uint32_t num_sequences, uint64_t seed) {
  QuestConfig config;
  config.num_sequences = num_sequences;
  config.avg_intervals_per_sequence = 5.0;
  config.num_symbols = 8;
  config.num_potential_patterns = 4;
  config.pattern_injection_prob = 0.8;
  config.seed = seed;
  auto quest = GenerateQuest(config);
  EXPECT_TRUE(quest.ok()) << quest.status();
  IntervalDatabase db;
  for (const std::string& name : quest->dict().names()) db.dict().Intern(name);
  for (size_t i = 0; i < quest->size(); ++i) {
    if (i % 3 == 0) db.AddSequence(EventSequence());
    db.AddSequence((*quest)[i]);
  }
  db.AddSequence(EventSequence());
  return db;
}

// Mines `db` with `mine(options)` at 1, 2, 3, 4 and 8 threads and expects the
// same patterns in the same order and the same merged metrics.
template <typename MineFn>
void ExpectSameAtEveryThreadCount(const IntervalDatabase& db, MineFn mine,
                                  const std::string& label) {
  std::string want;
  std::string want_metrics;
  for (uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
    MinerOptions options;
    options.min_support = 0.3;
    options.threads = threads;
    obs::StatsDomain domain("ragged");
    options.stats_domain = &domain;
    auto result = mine(options);
    ASSERT_TRUE(result.ok()) << result.status();
    const std::string got = EmissionOrderRender(*result, db.dict());
    const std::string got_metrics = ComparableMetricsJson(result->stats.metrics);
    if (threads == 1) {
      want = got;
      want_metrics = got_metrics;
      continue;
    }
    EXPECT_EQ(got, want) << label << " threads " << threads;
    EXPECT_EQ(got_metrics, want_metrics) << label << " threads " << threads;
  }
}

TEST(PreambleRangeDeterminismTest, RaggedDatabasesAgreeAcrossThreadCounts) {
  for (uint32_t n : {1u, 2u, 3u, 5u, 7u, 13u}) {
    const IntervalDatabase db = MakeRaggedDb(n, 40 + n);
    const std::string size = std::to_string(db.size()) + " sequences: ";
    ExpectSameAtEveryThreadCount(
        db, [&](const MinerOptions& o) { return MineEndpointGrowth(db, o, GrowthConfig{}); },
        size + "P-TPMiner/E");
    ExpectSameAtEveryThreadCount(
        db,
        [&](const MinerOptions& o) { return MineCoincidenceGrowth(db, o, GrowthConfig{}); },
        size + "P-TPMiner/C");
    ExpectSameAtEveryThreadCount(
        db, [&](const MinerOptions& o) { return MakeTPrefixSpan()->Mine(db, o); },
        size + "TPrefixSpan");
    ExpectSameAtEveryThreadCount(
        db, [&](const MinerOptions& o) { return MakeCTMiner()->Mine(db, o); },
        size + "CTMiner");
  }
}

// --steal changes how a unit's work is split into items, never what the run
// reports: the serial merged metrics with and without it must match in
// full. The input is large enough that a single unit emits more than 1,024
// patterns, where per-item bookkeeping (the old pattern-count watermark
// events) used to leak the item split into obs.flight.events.
TEST(StealDeterminismTest, StealDoesNotChangeMergedMetrics) {
  QuestConfig config;
  config.num_sequences = 500;
  config.num_symbols = 200;
  config.avg_intervals_per_sequence = 8.0;
  config.seed = 101;
  auto db = GenerateQuest(config);
  ASSERT_TRUE(db.ok()) << db.status();
  MinerOptions options;
  options.min_support = 0.02;
  auto plain = MineCoincidenceGrowth(*db, options, GrowthConfig{});
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_GT(plain->stats.patterns_found, 1024u);
  options.steal = true;
  auto stolen = MineCoincidenceGrowth(*db, options, GrowthConfig{});
  ASSERT_TRUE(stolen.ok()) << stolen.status();
  EXPECT_EQ(EmissionOrderRender(*stolen, db->dict()),
            EmissionOrderRender(*plain, db->dict()));
  EXPECT_EQ(ComparableMetricsJson(stolen->stats.metrics),
            ComparableMetricsJson(plain->stats.metrics));
}

}  // namespace
}  // namespace tpm
