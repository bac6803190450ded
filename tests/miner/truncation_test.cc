// Graceful-degradation contract: a guarded run that stops early must return
// a valid *subset* of the canonical (unbudgeted) result, report why it
// stopped, and — when the guard is deterministic (pattern cap, pre-fired
// cancellation) — be bit-for-bit reproducible across runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "datagen/quest.h"
#include "miner/miner.h"
#include "testing/test_util.h"
#include "util/arena.h"
#include "util/guard.h"
#include "util/rng.h"

namespace tpm {
namespace {

using testing::EmissionOrderRender;
using testing::RandomTinyDatabase;
using testing::Render;

IntervalDatabase TestDatabase() {
  return RandomTinyDatabase(/*seed=*/7, /*num_sequences=*/30, /*alphabet=*/4,
                            /*avg_intervals=*/5.0, /*horizon=*/40);
}

bool IsSubsetOf(const std::vector<std::string>& sub,
                const std::vector<std::string>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

template <typename MakeMiner>
void CheckPatternCapTruncation(MakeMiner make_miner) {
  const IntervalDatabase db = TestDatabase();
  MinerOptions options;
  options.min_support = 0.2;

  auto full = make_miner()->Mine(db, options);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_FALSE(full->stats.truncated);
  ASSERT_GT(full->patterns.size(), 4u) << "test database too small";
  const auto canonical = Render(*full, db.dict());

  options.max_patterns = 3;
  auto capped = make_miner()->Mine(db, options);
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_TRUE(capped->stats.truncated);
  EXPECT_EQ(capped->stats.stop_reason, StopReason::kPatternCap);
  EXPECT_EQ(capped->patterns.size(), 3u);
  EXPECT_TRUE(IsSubsetOf(Render(*capped, db.dict()), canonical))
      << "truncated result is not a subset of the canonical result";

  // A deterministic guard must truncate deterministically.
  auto again = make_miner()->Mine(db, options);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(Render(*again, db.dict()), Render(*capped, db.dict()));
  EXPECT_EQ(again->stats.stop_reason, StopReason::kPatternCap);
}

TEST(TruncationTest, PatternCapPTPMinerE) {
  CheckPatternCapTruncation([] { return MakePTPMinerE(); });
}

TEST(TruncationTest, PatternCapTPrefixSpan) {
  CheckPatternCapTruncation([] { return MakeTPrefixSpan(); });
}

TEST(TruncationTest, PatternCapLevelwise) {
  CheckPatternCapTruncation([] { return MakeLevelwiseMiner(); });
}

TEST(TruncationTest, PatternCapPTPMinerC) {
  CheckPatternCapTruncation([] { return MakePTPMinerC(); });
}

TEST(TruncationTest, PatternCapCTMiner) {
  CheckPatternCapTruncation([] { return MakeCTMiner(); });
}

TEST(TruncationTest, PatternCapBruteForceOracles) {
  CheckPatternCapTruncation([] { return MakeBruteForceEndpointMiner(); });
  CheckPatternCapTruncation([] { return MakeBruteForceCoincidenceMiner(); });
}

// The pattern cap keeps exactly max_patterns patterns at every --threads:
// a worker claims its pattern's slot in the run-wide total before keeping
// the pattern, so workers that emit at the same moment cannot all keep
// theirs past the cap. Which patterns survive depends on scheduling; each
// must still be one the full run reports.
TEST(TruncationTest, PatternCapIsExactAtEveryThreadCount) {
  QuestConfig config;
  config.num_sequences = 500;
  config.num_symbols = 40;
  config.seed = 101;
  auto db = GenerateQuest(config);
  ASSERT_TRUE(db.ok()) << db.status();
  MinerOptions options;
  options.min_support = 0.02;
  auto full = MakePTPMinerC()->Mine(*db, options);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_FALSE(full->stats.truncated);
  ASSERT_GT(full->patterns.size(), 2000u) << "test database too small";
  const auto canonical = Render(*full, db->dict());

  constexpr int kReps = 8;
  int runs = 0;
  int overshoots = 0;
  for (uint64_t cap : {50u, 500u, 2000u}) {
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      for (bool steal : {false, true}) {
        for (int rep = 0; rep < kReps; ++rep) {
          options.max_patterns = cap;
          options.threads = threads;
          options.steal = steal;
          auto run = MakePTPMinerC()->Mine(*db, options);
          ASSERT_TRUE(run.ok()) << run.status();
          ++runs;
          if (run->patterns.size() != cap) {
            ++overshoots;
            ADD_FAILURE() << "cap " << cap << " threads " << threads
                          << " steal " << steal << " kept "
                          << run->patterns.size();
          }
          EXPECT_EQ(run->stats.stop_reason, StopReason::kPatternCap);
          EXPECT_EQ(run->stats.patterns_found, run->patterns.size());
          EXPECT_TRUE(IsSubsetOf(Render(*run, db->dict()), canonical))
              << "cap " << cap << " threads " << threads << " steal "
              << steal;
        }
      }
    }
  }
  EXPECT_EQ(overshoots, 0) << "of " << runs << " capped runs";
}

// --budget truncates, or doesn't, by the same rule at every --threads. A
// budget that has expired by the first guard check stops every configuration
// with kDeadline and a subset of the full result; a budget no run comes near
// leaves the output byte-identical, in emission order, to the unbudgeted run.
template <typename MakeMiner>
void CheckTimeBudgetAtEveryThreadCount(MakeMiner make_miner) {
  QuestConfig config;
  config.num_sequences = 200;
  config.num_symbols = 30;
  config.seed = 7;
  auto db = GenerateQuest(config);
  ASSERT_TRUE(db.ok()) << db.status();
  MinerOptions options;
  options.min_support = 0.05;
  auto full = make_miner()->Mine(*db, options);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_FALSE(full->stats.truncated);
  ASSERT_GT(full->patterns.size(), 50u) << "test database too small";
  const auto canonical = Render(*full, db->dict());
  const std::string want = EmissionOrderRender(*full, db->dict());

  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    for (bool steal : {false, true}) {
      options.threads = threads;
      options.steal = steal;

      options.time_budget_seconds = 1e-9;
      auto expired = make_miner()->Mine(*db, options);
      ASSERT_TRUE(expired.ok()) << expired.status();
      EXPECT_TRUE(expired->stats.truncated)
          << "threads " << threads << " steal " << steal;
      EXPECT_EQ(expired->stats.stop_reason, StopReason::kDeadline)
          << "threads " << threads << " steal " << steal;
      EXPECT_LT(expired->patterns.size(), full->patterns.size());
      EXPECT_TRUE(IsSubsetOf(Render(*expired, db->dict()), canonical))
          << "threads " << threads << " steal " << steal;

      options.time_budget_seconds = 1e6;
      auto generous = make_miner()->Mine(*db, options);
      ASSERT_TRUE(generous.ok()) << generous.status();
      EXPECT_FALSE(generous->stats.truncated)
          << "threads " << threads << " steal " << steal;
      EXPECT_EQ(generous->stats.stop_reason, StopReason::kNone);
      EXPECT_EQ(EmissionOrderRender(*generous, db->dict()), want)
          << "threads " << threads << " steal " << steal;
    }
  }
}

TEST(TruncationTest, TimeBudgetAtEveryThreadCountPTPMinerE) {
  CheckTimeBudgetAtEveryThreadCount([] { return MakePTPMinerE(); });
}

TEST(TruncationTest, TimeBudgetAtEveryThreadCountPTPMinerC) {
  CheckTimeBudgetAtEveryThreadCount([] { return MakePTPMinerC(); });
}

TEST(TruncationTest, PreCancelledTokenStopsImmediately) {
  const IntervalDatabase db = TestDatabase();
  CancellationToken token;
  token.Cancel();
  MinerOptions options;
  options.min_support = 0.2;
  options.cancellation = &token;

  auto result = MakePTPMinerE()->Mine(db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stats.truncated);
  EXPECT_EQ(result->stats.stop_reason, StopReason::kCancelled);

  auto full = MakePTPMinerE()->Mine(db, MinerOptions{.min_support = 0.2});
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_LT(result->patterns.size(), full->patterns.size());
  EXPECT_TRUE(
      IsSubsetOf(Render(*result, db.dict()), Render(*full, db.dict())));
}

TEST(TruncationTest, MemoryBudgetReportsMemoryReason) {
  const IntervalDatabase db = TestDatabase();
  MinerOptions options;
  options.min_support = 0.1;
  options.memory_budget_bytes = 1;  // below any representation size

  for (auto make : {&MakePTPMinerE, &MakeTPrefixSpan, &MakeLevelwiseMiner}) {
    auto result = make()->Mine(db, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->stats.truncated);
    EXPECT_EQ(result->stats.stop_reason, StopReason::kMemory);
  }
}

// One heavyweight unit among many light ones: symbol A recurs in every
// sequence, so A's subtree needs far larger projection arenas than any other
// unit's, whichever worker mines it.
IntervalDatabase SkewedDatabase() {
  IntervalDatabase db;
  constexpr uint32_t kLight = 12;
  for (uint32_t i = 0; i <= kLight; ++i) {
    db.dict().Intern(std::string(1, static_cast<char>('A' + i)));
  }
  Rng rng(3);
  for (uint32_t s = 0; s < 150; ++s) {
    EventSequence seq;
    for (TimeT k = 0; k < 12; ++k) seq.Add(0, k * 10, k * 10 + 3);
    for (uint32_t j = 0; j < 6; ++j) {
      const EventId e = static_cast<EventId>(1 + rng.Uniform(kLight));
      const TimeT b = static_cast<TimeT>(rng.Uniform(120));
      seq.Add(e, b, b + 1 + static_cast<TimeT>(rng.Uniform(19)));
    }
    seq.MergeSameSymbolConflicts();
    db.AddSequence(std::move(seq));
  }
  return db;
}

// --memory-budget-mb bounds the whole run's tracked total at every thread
// count. A budget just above the largest unbudgeted 4-thread peak must
// therefore truncate no thread count, with or without stealing. (An equal
// per-worker share of the budget would trip whichever worker took the heavy
// unit.)
template <typename MakeMiner>
void CheckBudgetAboveParallelPeak(MakeMiner make_miner) {
  const IntervalDatabase db = SkewedDatabase();
  MinerOptions options;
  options.min_support = 0.3;
  auto serial = make_miner()->Mine(db, options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_FALSE(serial->stats.truncated);
  const auto want = Render(*serial, db.dict());

  // The 4-thread peak depends on which worker mined what (each worker's
  // arenas grow to fit the largest item it took); take the largest of a few
  // runs, plus four default arena blocks of slack. The heavy unit's worker
  // alone needs well over a quarter of that.
  size_t p4 = 0;
  options.threads = 4;
  for (bool steal : {false, true, true}) {
    for (int rep = 0; rep < 2; ++rep) {
      options.steal = steal;
      auto run = make_miner()->Mine(db, options);
      ASSERT_TRUE(run.ok()) << run.status();
      p4 = std::max(p4, run->stats.peak_tracked_bytes);
    }
  }
  options.memory_budget_bytes = p4 + 4 * Arena::kDefaultMinBlockBytes;
  for (uint32_t threads : {1u, 2u, 4u}) {
    for (bool steal : {false, true}) {
      options.threads = threads;
      options.steal = steal;
      auto run = make_miner()->Mine(db, options);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_FALSE(run->stats.truncated)
          << "threads " << threads << " steal " << steal << " reason "
          << StopReasonName(run->stats.stop_reason) << " budget "
          << options.memory_budget_bytes;
      EXPECT_EQ(Render(*run, db.dict()), want)
          << "threads " << threads << " steal " << steal;
    }
  }
}

TEST(TruncationTest, BudgetAboveParallelPeakPTPMinerC) {
  CheckBudgetAboveParallelPeak([] { return MakePTPMinerC(); });
}

TEST(TruncationTest, BudgetAboveParallelPeakPTPMinerE) {
  CheckBudgetAboveParallelPeak([] { return MakePTPMinerE(); });
}

TEST(TruncationTest, UntruncatedRunsReportNone) {
  const IntervalDatabase db = TestDatabase();
  MinerOptions options;
  options.min_support = 0.2;
  auto result = MakePTPMinerE()->Mine(db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->stats.truncated);
  EXPECT_EQ(result->stats.stop_reason, StopReason::kNone);
  EXPECT_EQ(result->stats.ToString().find("TRUNCATED"), std::string::npos);
}

}  // namespace
}  // namespace tpm
