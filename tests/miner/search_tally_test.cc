// SearchTally: the plain per-work-item search counters must bucket, sum and
// convert exactly like the registry metrics they stand in for, so merged
// metrics keep their bytes — and every expanded node, the root included, is
// attributed to exactly one worker.

#include "miner/miner_metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "datagen/quest.h"
#include "miner/coincidence_growth.h"
#include "miner/endpoint_growth.h"
#include "obs/metrics.h"

namespace tpm {
namespace {

// At, between and beyond the bounds of every tally histogram, including
// values past the last bound (the overflow bucket).
const std::vector<uint64_t>& Probes() {
  static const std::vector<uint64_t> probes = {
      0, 1, 2, 3, 4, 5, 15, 16, 17, 63, 64, 65, 1023, 1024, 1025, 4096, 65536, 65537,
      1 << 20, 4194304, 4194305, 4294967296u, 4294967297u, uint64_t{1} << 40};
  return probes;
}

TEST(SearchTallyTest, BoundsMatchTheRegistryShapes) {
  EXPECT_EQ(TallyHistogram<kNodeDepthBounds>::Bounds(),
            obs::LinearBounds(0, 1, 17));
  EXPECT_EQ(TallyHistogram<kProjectedSeqsBounds>::Bounds(),
            obs::ExponentialBounds(1, 4.0, 10));
  EXPECT_EQ(TallyHistogram<kProjectedStatesBounds>::Bounds(),
            obs::ExponentialBounds(1, 4.0, 12));
  EXPECT_EQ(TallyHistogram<kArenaDepthBounds>::Bounds(),
            obs::ExponentialBounds(1024, 4.0, 12));
  EXPECT_EQ(TallyHistogram<kWorkerBounds>::Bounds(),
            obs::LinearBounds(0, 1, 65));
}

// The first bound >= v takes the value; past the last bound it overflows.
TEST(SearchTallyTest, BucketRule) {
  TallyHistogram<kProjectedSeqsBounds> h;  // 1, 4, 16, ..., 262144
  h.Observe(1);        // at the first bound
  h.Observe(2);        // between 1 and 4
  h.Observe(4);        // at 4
  h.Observe(262144);   // at the last bound
  h.Observe(262145);   // overflow
  h.Observe(0);        // below the first bound
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 2u);
  EXPECT_EQ(h.counts[9], 1u);
  EXPECT_EQ(h.counts[10], 1u);
  EXPECT_EQ(h.sum, 1u + 2 + 4 + 262144 + 262145);

  TallyHistogram<kNodeDepthBounds> depth;
  depth.Observe(3, /*times=*/5);
  depth.Observe(17);
  EXPECT_EQ(depth.counts[3], 5u);
  EXPECT_EQ(depth.counts[17], 1u);  // overflow
  EXPECT_EQ(depth.sum, 15u + 17);
}

TEST(SearchTallyTest, AddIsElementWise) {
  SearchTally a;
  a.pair_hits = 1;
  a.postfix_hits = 2;
  a.validity_hits = 3;
  a.apriori_hits = 4;
  a.topk_hits = 5;
  a.candidates = 6;
  a.states = 7;
  a.patterns = 8;
  a.scan_items = 9;
  a.nodes.Observe(2);
  a.projected_seqs.Observe(9);
  a.projected_states.Observe(100);
  a.arena_depth_bytes.Observe(5000);
  SearchTally b = a;
  b.pair_hits = 10;
  b.nodes.Observe(20);
  b.arena_depth_bytes.Observe(1);

  SearchTally sum = a;
  sum.Add(b);
  EXPECT_EQ(sum.pair_hits, 11u);
  EXPECT_EQ(sum.postfix_hits, 4u);
  EXPECT_EQ(sum.validity_hits, 6u);
  EXPECT_EQ(sum.apriori_hits, 8u);
  EXPECT_EQ(sum.topk_hits, 10u);
  EXPECT_EQ(sum.candidates, 12u);
  EXPECT_EQ(sum.states, 14u);
  EXPECT_EQ(sum.patterns, 16u);
  EXPECT_EQ(sum.scan_items, 18u);
  EXPECT_EQ(sum.nodes.counts[2], 2u);
  EXPECT_EQ(sum.nodes.counts[17], 1u);
  EXPECT_EQ(sum.nodes.sum, 2u + 2 + 20);
  EXPECT_EQ(sum.projected_seqs.counts[2], 2u);
  EXPECT_EQ(sum.projected_states.counts[4], 2u);
  EXPECT_EQ(sum.arena_depth_bytes.counts[0], 1u);
  EXPECT_EQ(sum.arena_depth_bytes.counts[2], 2u);
}

// The converted tally must be byte-identical to a registry that recorded
// the same observations through the live metric handles.
TEST(SearchTallyTest, ConversionMatchesARegistry) {
  SearchTally tally;
  obs::MetricsRegistry want;
  tally.pair_hits = 3;
  want.GetCounter("prune.pair.hits")->Increment(3);
  tally.postfix_hits = 5;
  want.GetCounter("prune.postfix.hits")->Increment(5);
  want.GetCounter("prune.validity.hits");
  tally.apriori_hits = 2;
  want.GetCounter("prune.apriori.hits")->Increment(2);
  tally.candidates = 40;
  want.GetCounter("search.candidates")->Increment(40);
  tally.states = 70;
  want.GetCounter("search.states")->Increment(70);
  tally.patterns = 9;
  want.GetCounter("search.patterns")->Increment(9);
  tally.scan_items = 60;
  want.GetCounter("search.scan_items")->Increment(60);
  want.GetCounter("miner.arena.blocks");
  want.GetGauge("miner.arena.peak_bytes");
  want.GetGauge("process.peak_rss_bytes");
  obs::Histogram* nodes =
      want.GetHistogram("search.nodes", obs::LinearBounds(0, 1, 17));
  obs::Histogram* seqs = want.GetHistogram("search.projected_seqs",
                                           obs::ExponentialBounds(1, 4.0, 10));
  obs::Histogram* states = want.GetHistogram(
      "search.projected_states", obs::ExponentialBounds(1, 4.0, 12));
  obs::Histogram* arena = want.GetHistogram(
      "miner.arena.depth_bytes", obs::ExponentialBounds(1024, 4.0, 12));
  for (uint64_t v : Probes()) {
    tally.nodes.Observe(v);
    nodes->Observe(v);
    tally.projected_seqs.Observe(v);
    seqs->Observe(v);
    tally.projected_states.Observe(v);
    states->Observe(v);
    tally.arena_depth_bytes.Observe(v);
    arena->Observe(v);
  }
  EXPECT_EQ(tally.Snapshot(/*top_k=*/false).ToJson(),
            want.Snapshot().ToJson());

  // ChargeTo adds into a registry that already holds the names.
  tally.ChargeTo(&want, /*top_k=*/false);
  SearchTally twice = tally;
  twice.Add(tally);
  EXPECT_EQ(twice.Snapshot(/*top_k=*/false).ToJson(),
            want.Snapshot().ToJson());
}

// prune.topk.hits is written only with the bar on, so runs without it keep
// their metrics bytes.
TEST(SearchTallyTest, TopKHitsOnlyWithTheBar) {
  SearchTally tally;
  tally.topk_hits = 4;
  EXPECT_EQ(tally.Snapshot(/*top_k=*/false).FindCounter("prune.topk.hits"),
            nullptr);
#ifndef TPM_OBS_DISABLED
  EXPECT_EQ(tally.Snapshot(/*top_k=*/true).CounterValue("prune.topk.hits"),
            4u);
#else
  EXPECT_TRUE(tally.Snapshot(/*top_k=*/true).counters.empty());
#endif
}

// The per-worker node attribution (miner.worker.nodes, one observation per
// node) sums to the search.nodes count and to MiningStats::nodes_expanded at
// every thread count, with and without stealing: the root node counts under
// worker 0 like any other node.
template <typename ResultT>
void ExpectNodesAttributed(const ResultT& r, uint32_t threads, bool steal) {
  ASSERT_FALSE(r.stats.truncated);
  ASSERT_GT(r.stats.nodes_expanded, 1u);
#ifndef TPM_OBS_DISABLED
  const obs::HistogramSample* worker =
      r.stats.metrics.FindHistogram("miner.worker.nodes");
  const obs::HistogramSample* search =
      r.stats.metrics.FindHistogram("search.nodes");
  ASSERT_NE(worker, nullptr);
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(worker->count, search->count)
      << "threads " << threads << " steal " << steal;
  EXPECT_EQ(search->count, r.stats.nodes_expanded)
      << "threads " << threads << " steal " << steal;
#else
  (void)threads;
  (void)steal;
#endif
}

TEST(SearchTallyTest, EveryNodeIsAttributedToAWorker) {
  QuestConfig config;
  config.num_sequences = 60;
  config.avg_intervals_per_sequence = 6.0;
  config.num_symbols = 12;
  config.num_potential_patterns = 8;
  config.pattern_injection_prob = 0.7;
  config.seed = 5;
  auto db = GenerateQuest(config);
  ASSERT_TRUE(db.ok()) << db.status();
  MinerOptions options;
  options.min_support = 0.2;
  for (uint32_t threads : {1u, 2u, 4u}) {
    for (bool steal : {false, true}) {
      options.threads = threads;
      options.steal = steal;
      auto e = MineEndpointGrowth(*db, options, GrowthConfig{});
      ASSERT_TRUE(e.ok()) << e.status();
      ExpectNodesAttributed(*e, threads, steal);
      auto c = MineCoincidenceGrowth(*db, options, GrowthConfig{});
      ASSERT_TRUE(c.ok()) << c.status();
      ExpectNodesAttributed(*c, threads, steal);
    }
  }
}

}  // namespace
}  // namespace tpm
