// Regression tests for the exact-byte memory accounting the arena-backed
// projection layer enables. Every tracked
// allocation is one of three monotone components — the representation build,
// the projection arenas (charged per mapped block, never released until the
// engine dies), and the emitted patterns — so the MemoryTracker high-water
// mark must equal their sum EXACTLY, not approximately. Any drift means a
// component went back to estimate-based accounting. Every worker charges the
// run's one tracker, so the identity holds at every thread count.

#include <gtest/gtest.h>

#include <cstdint>

#include "datagen/quest.h"
#include "miner/coincidence_growth.h"
#include "miner/endpoint_growth.h"
#include "miner/miner.h"
#include "obs/metrics.h"
#include "testing/test_util.h"
#include "util/guard.h"

namespace tpm {
namespace {

IntervalDatabase MakeDb(uint64_t seed) {
  QuestConfig config;
  config.num_sequences = 40;
  config.avg_intervals_per_sequence = 6.0;
  config.num_symbols = 15;
  config.num_potential_patterns = 10;
  config.pattern_injection_prob = 0.6;
  config.seed = seed;
  auto db = GenerateQuest(config);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

// Bytes the engine charges per emitted pattern: items plus slice offsets
// (including the trailing end offset).
template <typename ResultT>
size_t PatternBytes(const ResultT& result) {
  size_t bytes = 0;
  for (const auto& mp : result.patterns) {
    bytes += (mp.pattern.items().size() + mp.pattern.offsets().size()) *
             sizeof(uint32_t);
  }
  return bytes;
}

constexpr uint32_t kThreadCounts[] = {1, 2, 4};

TEST(MemoryAccountingTest, EndpointPeakIsExactlyBuildPlusArena) {
  const IntervalDatabase db = MakeDb(7);
  for (uint32_t threads : kThreadCounts) {
    MinerOptions options;
    options.min_support = 0.15;
    options.threads = threads;
    auto result = MineEndpointGrowth(db, options, GrowthConfig{});
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_GT(result->patterns.size(), 0u);
    EXPECT_GT(result->stats.arena_peak_bytes, 0u);
    EXPECT_EQ(result->stats.peak_tracked_bytes,
              result->stats.build_bytes + result->stats.arena_peak_bytes +
                  PatternBytes(*result))
        << "threads " << threads;
  }
}

TEST(MemoryAccountingTest, CoincidencePeakIsExactlyBuildPlusArena) {
  const IntervalDatabase db = MakeDb(11);
  for (uint32_t threads : kThreadCounts) {
    MinerOptions options;
    options.min_support = 0.15;
    options.threads = threads;
    auto result =
        MineCoincidenceGrowth(db, options, GrowthConfig{});
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_GT(result->patterns.size(), 0u);
    EXPECT_EQ(result->stats.peak_tracked_bytes,
              result->stats.build_bytes + result->stats.arena_peak_bytes +
                  PatternBytes(*result))
        << "threads " << threads;
  }
}

// With a support threshold nothing can reach, no patterns are emitted and the
// identity reduces to its pure form: peak == build + arena, byte for byte.
TEST(MemoryAccountingTest, ZeroPatternRunPinsPureIdentity) {
  const IntervalDatabase db = MakeDb(13);
  for (uint32_t threads : kThreadCounts) {
    MinerOptions options;
    options.min_support = static_cast<double>(db.size() + 1);  // unreachable
    options.threads = threads;
    auto result = MineEndpointGrowth(db, options, GrowthConfig{});
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->patterns.size(), 0u);
    EXPECT_EQ(result->stats.peak_tracked_bytes,
              result->stats.build_bytes + result->stats.arena_peak_bytes)
        << "threads " << threads;
  }
}

// The physical-projection baseline (TPrefixSpan) stores its states in the
// same arenas; its postfix copies are charged on top while a node scans and
// released with the node, so the peak covers the exact end-of-run sum.
TEST(MemoryAccountingTest, PhysicalBaselineUsesArenasPlusPostfixCopies) {
  const IntervalDatabase db = MakeDb(7);
  MinerOptions options;
  options.min_support = 0.15;
  auto result = MakeTPrefixSpan()->Mine(db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->stats.arena_peak_bytes, 0u);
  EXPECT_GE(result->stats.peak_tracked_bytes,
            result->stats.build_bytes + result->stats.arena_peak_bytes +
                PatternBytes(*result));
}

#ifndef TPM_OBS_DISABLED
// The span-list arenas sit outside the tracker, so their mapped bytes are
// published on their own: above zero once a node has listed its spans, and
// zero for a run cancelled before its root node.
TEST(MemoryAccountingTest, ListArenaBytesArePublished) {
  const IntervalDatabase db = MakeDb(7);
  auto lists_bytes = [](const auto& result) -> int64_t {
    const obs::GaugeSample* g =
        result.stats.metrics.FindGauge("miner.arena.lists_bytes");
    return g != nullptr ? g->value : -1;
  };
  for (uint32_t threads : kThreadCounts) {
    MinerOptions options;
    options.min_support = 0.15;
    options.threads = threads;
    auto result = MineCoincidenceGrowth(db, options, GrowthConfig{});
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GT(lists_bytes(*result), 0) << "threads " << threads;
  }
  CancellationToken cancelled;
  cancelled.Cancel();
  MinerOptions options;
  options.min_support = 0.15;
  options.cancellation = &cancelled;
  auto stopped = MineEndpointGrowth(db, options, GrowthConfig{});
  ASSERT_TRUE(stopped.ok()) << stopped.status();
  EXPECT_TRUE(stopped->stats.truncated);
  EXPECT_EQ(stopped->stats.nodes_expanded, 0u);
  EXPECT_EQ(lists_bytes(*stopped), 0);
}
#endif  // TPM_OBS_DISABLED

}  // namespace
}  // namespace tpm
