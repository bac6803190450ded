// Kill-and-resume determinism suite (checkpoint/resume tentpole): on random
// QUEST databases, interrupting a mining run at an arbitrary point (pattern
// cap, the CLI's stand-in for SIGINT/budget/fault exits) and resuming from
// the final checkpoint must produce output byte-identical to an
// uninterrupted run — same patterns in the same emission order, and the
// merged metrics delta equal to the clean run's — for both pattern
// languages and all four growth miners (P-TPMiner and the physical-projection
// baselines). The level-wise miners refuse checkpointing outright.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "datagen/quest.h"
#include "io/checkpoint.h"
#include "miner/coincidence_growth.h"
#include "miner/endpoint_growth.h"
#include "miner/levelwise.h"
#include "miner/miner.h"
#include "obs/stats_domain.h"
#include "testing/test_util.h"
#include "util/fault.h"
#include "util/guard.h"

namespace tpm {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

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

// Renders patterns in EMISSION order (unlike testing::Render, which sorts):
// resume must reproduce the exact pattern stream, not just the same set.
template <typename PatternT>
std::string EmissionRender(const MiningResult<PatternT>& result,
                           const Dictionary& dict) {
  std::string out;
  for (const auto& mp : result.patterns) {
    out += mp.pattern.ToString(dict) + "@" + std::to_string(mp.support) + "\n";
  }
  return out;
}

// The comparable slice of a run's metrics delta (testing::): miner.arena.*,
// process.*, and miner.worker.* legitimately differ (a resumed run projects
// fewer subtrees, allocator history shifts RSS, and scheduling attribution
// is timing-dependent), but every search metric — nodes, candidates,
// prunes, states, flight events — must merge back byte-identical.
using ::tpm::testing::ComparableMetricsJson;

// Runs `mine` three ways — clean, interrupted at `cap` patterns with a
// checkpoint, resumed from that checkpoint — and asserts the resumed run
// reproduces the clean run byte-for-byte (patterns and merged metrics).
template <typename MineFn>
void ExpectInterruptResumeExact(const IntervalDatabase& db,
                                const MinerOptions& base, uint64_t cap,
                                MineFn mine, const std::string& tag) {
  SCOPED_TRACE(tag + " cap=" + std::to_string(cap));
  MinerOptions clean_options = base;
  obs::StatsDomain clean_domain("clean");
  clean_options.stats_domain = &clean_domain;
  auto clean = mine(db, clean_options);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_FALSE(clean->stats.truncated);
  if (clean->patterns.size() <= cap) return;  // cap would not interrupt

  const std::string path = TempPath("resume_" + tag + ".tpmc");
  MinerOptions part_options = base;
  part_options.max_patterns = cap;
  obs::StatsDomain part_domain("part");
  part_options.stats_domain = &part_domain;
  CheckpointWriter writer(path, 0.0);
  part_options.checkpoint_writer = &writer;
  auto part = mine(db, part_options);
  ASSERT_TRUE(part.ok()) << part.status();
  ASSERT_TRUE(part->stats.truncated);
  ASSERT_GE(writer.writes(), 1u);  // at least the final checkpoint

  auto ckpt = ReadCheckpointFile(path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();
  MinerOptions resume_options = base;  // budgets may differ freely on resume
  obs::StatsDomain resume_domain("resume");
  resume_options.stats_domain = &resume_domain;
  resume_options.resume = &*ckpt;
  auto resumed = mine(db, resume_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_FALSE(resumed->stats.truncated);

  EXPECT_EQ(EmissionRender(*resumed, db.dict()),
            EmissionRender(*clean, db.dict()));
  EXPECT_EQ(ComparableMetricsJson(resumed->stats.metrics),
            ComparableMetricsJson(clean->stats.metrics));
  std::remove(path.c_str());
}

// Runs `mine` clean, then cancelled before its root scan (a checkpoint with
// no unit table and no root tally: total_units == 0), then resumed; then
// once more with the cancelled segment in the middle of a chain, after a
// segment interrupted one pattern short of completion (so the cancelled
// segment carries completed units and their tallies forward). Both resumes
// must reproduce the clean run's patterns and merged metrics.
template <typename MineFn>
void ExpectPreRootStopResumesExact(const IntervalDatabase& db,
                                   const MinerOptions& base, MineFn mine,
                                   const std::string& tag) {
  SCOPED_TRACE(tag);
  auto clean = mine(db, base);
  ASSERT_TRUE(clean.ok()) << clean.status();
  const std::string path = TempPath("preroot_" + tag + ".tpmc");
  CancellationToken cancelled;
  cancelled.Cancel();

  // Segments run in order; each resumes from the previous one's checkpoint
  // and leaves its own. `cap` > 0 interrupts at that pattern count,
  // `cancel` before the root scan.
  struct Segment {
    uint64_t cap;
    bool cancel;
  };
  auto run_chain = [&](const std::vector<Segment>& chain) {
    std::vector<Checkpoint> ckpts;
    ckpts.reserve(chain.size());
    for (const Segment& seg : chain) {
      MinerOptions o = base;
      o.max_patterns = seg.cap;
      if (seg.cancel) o.cancellation = &cancelled;
      if (!ckpts.empty()) o.resume = &ckpts.back();
      CheckpointWriter writer(path, 0.0);
      o.checkpoint_writer = &writer;
      auto part = mine(db, o);
      EXPECT_TRUE(part.ok()) << part.status();
      EXPECT_TRUE(part.ok() && part->stats.truncated);
      auto ckpt = ReadCheckpointFile(path);
      EXPECT_TRUE(ckpt.ok()) << ckpt.status();
      if (!ckpt.ok()) return;
      ckpts.push_back(std::move(*ckpt));
    }
    MinerOptions o = base;
    o.resume = &ckpts.back();
    auto resumed = mine(db, o);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_FALSE(resumed->stats.truncated);
    EXPECT_EQ(EmissionRender(*resumed, db.dict()),
              EmissionRender(*clean, db.dict()));
    EXPECT_EQ(ComparableMetricsJson(resumed->stats.metrics),
              ComparableMetricsJson(clean->stats.metrics));
  };
  {
    SCOPED_TRACE("cancelled");
    run_chain({{0, true}});
    auto ckpt = ReadCheckpointFile(path);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status();
    EXPECT_EQ(ckpt->total_units, 0u);
    EXPECT_TRUE(ckpt->completed_units.empty());
  }
  if (clean->patterns.size() > 1) {
    SCOPED_TRACE("capped, then cancelled");
    run_chain({{clean->patterns.size() - 1, false}, {0, true}});
    auto ckpt = ReadCheckpointFile(path);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status();
    EXPECT_GT(ckpt->total_units, 0u);
    EXPECT_FALSE(ckpt->completed_units.empty());
  }
  std::remove(path.c_str());
}

// Interruption points: immediately (before any unit completes), mid-run, and
// one short of completion — derived from the clean run's pattern count.
std::vector<uint64_t> CapsFor(size_t num_patterns) {
  std::vector<uint64_t> caps = {1};
  if (num_patterns > 2) caps.push_back(num_patterns / 2);
  if (num_patterns > 1) caps.push_back(num_patterns - 1);
  return caps;
}

class CheckpointResumeTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(QuestSeeds, CheckpointResumeTest,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));

TEST_P(CheckpointResumeTest, EndpointGrowthEveryMaskAndCap) {
  const IntervalDatabase db = MakeDb(GetParam());
  auto mine = [](const IntervalDatabase& d, const MinerOptions& o) {
    return MineEndpointGrowth(d, o, GrowthConfig{});
  };
  for (uint32_t mask : {7u, 0u, 5u, 2u}) {
    MinerOptions base = BaseOptions(mask);
    auto clean = MineEndpointGrowth(db, base, GrowthConfig{});
    ASSERT_TRUE(clean.ok()) << clean.status();
    for (uint64_t cap : CapsFor(clean->patterns.size())) {
      ExpectInterruptResumeExact(db, base, cap, mine,
                                 "ep_growth_m" + std::to_string(mask));
    }
  }
}

TEST_P(CheckpointResumeTest, EndpointPhysicalProjectionBaseline) {
  const IntervalDatabase db = MakeDb(GetParam());
  const GrowthConfig config{.baseline = true};
  auto mine = [config](const IntervalDatabase& d, const MinerOptions& o) {
    return MineEndpointGrowth(d, o, config);
  };
  const MinerOptions base = BaseOptions(0);
  auto clean = MineEndpointGrowth(db, base, config);
  ASSERT_TRUE(clean.ok()) << clean.status();
  for (uint64_t cap : CapsFor(clean->patterns.size())) {
    ExpectInterruptResumeExact(db, base, cap, mine, "ep_physical");
  }
}

TEST_P(CheckpointResumeTest, CoincidenceGrowthEveryMaskAndCap) {
  const IntervalDatabase db = MakeDb(GetParam());
  auto mine = [](const IntervalDatabase& d, const MinerOptions& o) {
    return MineCoincidenceGrowth(d, o, GrowthConfig{});
  };
  for (uint32_t mask : {3u, 0u}) {
    MinerOptions base = BaseOptions(mask);
    auto clean = MineCoincidenceGrowth(db, base, GrowthConfig{});
    ASSERT_TRUE(clean.ok()) << clean.status();
    for (uint64_t cap : CapsFor(clean->patterns.size())) {
      ExpectInterruptResumeExact(db, base, cap, mine,
                                 "co_growth_m" + std::to_string(mask));
    }
  }
}

TEST_P(CheckpointResumeTest, CoincidencePhysicalProjectionBaseline) {
  const IntervalDatabase db = MakeDb(GetParam());
  const GrowthConfig config{.baseline = true};
  auto mine = [config](const IntervalDatabase& d, const MinerOptions& o) {
    return MineCoincidenceGrowth(d, o, config);
  };
  const MinerOptions base = BaseOptions(0);
  auto clean = MineCoincidenceGrowth(db, base, config);
  ASSERT_TRUE(clean.ok()) << clean.status();
  for (uint64_t cap : CapsFor(clean->patterns.size())) {
    ExpectInterruptResumeExact(db, base, cap, mine, "co_physical");
  }
}

TEST_P(CheckpointResumeTest, StopBeforeRootScanResumesExactly) {
  const IntervalDatabase db = MakeDb(GetParam());
  for (uint32_t mask : {7u, 0u}) {
    const MinerOptions base = BaseOptions(mask);
    ExpectPreRootStopResumesExact(
        db, base,
        [](const IntervalDatabase& d, const MinerOptions& o) {
          return MineEndpointGrowth(d, o, GrowthConfig{});
        },
        "ep_m" + std::to_string(mask));
    ExpectPreRootStopResumesExact(
        db, base,
        [](const IntervalDatabase& d, const MinerOptions& o) {
          return MineCoincidenceGrowth(d, o, GrowthConfig{});
        },
        "co_m" + std::to_string(mask));
  }
}

// A second interruption during a resumed run must fold transitively: the
// final resume still reproduces the clean run exactly.
TEST_P(CheckpointResumeTest, ResumeOfResumeFoldsTransitively) {
  const IntervalDatabase db = MakeDb(GetParam());
  const MinerOptions base = BaseOptions(7);
  obs::StatsDomain clean_domain("clean");
  MinerOptions clean_options = base;
  clean_options.stats_domain = &clean_domain;
  auto clean = MineEndpointGrowth(db, clean_options, GrowthConfig{});
  ASSERT_TRUE(clean.ok()) << clean.status();
  if (clean->patterns.size() < 3) return;

  const std::string path = TempPath("resume_twice.tpmc");
  MinerOptions first = base;
  first.max_patterns = 1;
  CheckpointWriter w1(path, 0.0);
  first.checkpoint_writer = &w1;
  obs::StatsDomain d1("first");
  first.stats_domain = &d1;
  ASSERT_TRUE(MineEndpointGrowth(db, first, GrowthConfig{}).ok());
  auto ckpt1 = ReadCheckpointFile(path);
  ASSERT_TRUE(ckpt1.ok()) << ckpt1.status();

  MinerOptions second = base;
  second.max_patterns = clean->patterns.size() - 1;
  second.resume = &*ckpt1;
  CheckpointWriter w2(path, 0.0);
  second.checkpoint_writer = &w2;
  obs::StatsDomain d2("second");
  second.stats_domain = &d2;
  auto mid = MineEndpointGrowth(db, second, GrowthConfig{});
  ASSERT_TRUE(mid.ok()) << mid.status();
  ASSERT_TRUE(mid->stats.truncated);
  auto ckpt2 = ReadCheckpointFile(path);
  ASSERT_TRUE(ckpt2.ok()) << ckpt2.status();

  MinerOptions last = base;
  last.resume = &*ckpt2;
  obs::StatsDomain d3("last");
  last.stats_domain = &d3;
  auto final_run = MineEndpointGrowth(db, last, GrowthConfig{});
  ASSERT_TRUE(final_run.ok()) << final_run.status();
  EXPECT_EQ(EmissionRender(*final_run, db.dict()),
            EmissionRender(*clean, db.dict()));
  EXPECT_EQ(ComparableMetricsJson(final_run->stats.metrics),
            ComparableMetricsJson(clean->stats.metrics));
  std::remove(path.c_str());
}

// Checkpoints are scheduling-independent durable state: a run interrupted
// while mining with N workers must resume byte-identically under any other
// worker count (and vice versa) — the v2 per-unit pattern grouping is what
// makes the regrouping thread-count-agnostic.
TEST_P(CheckpointResumeTest, ResumeAcrossThreadCounts) {
  const IntervalDatabase db = MakeDb(GetParam());
  const MinerOptions base = BaseOptions(7);
  obs::StatsDomain clean_domain("clean");
  MinerOptions clean_options = base;
  clean_options.stats_domain = &clean_domain;
  auto clean = MineEndpointGrowth(db, clean_options, GrowthConfig{});
  ASSERT_TRUE(clean.ok()) << clean.status();
  if (clean->patterns.size() < 3) return;
  const uint64_t cap = clean->patterns.size() / 2;

  // (interrupting threads, resuming threads): parallel→serial and
  // serial→parallel, plus parallel→parallel with steal on the resume.
  struct Combo {
    uint32_t part_threads;
    uint32_t resume_threads;
    bool resume_steal;
  };
  for (const Combo c : {Combo{4, 1, false}, Combo{1, 8, false},
                        Combo{2, 4, true}}) {
    SCOPED_TRACE("part=" + std::to_string(c.part_threads) +
                 " resume=" + std::to_string(c.resume_threads) +
                 (c.resume_steal ? " steal" : ""));
    const std::string path = TempPath("resume_threads.tpmc");
    MinerOptions part = base;
    part.threads = c.part_threads;
    part.max_patterns = cap;
    CheckpointWriter writer(path, 0.0);
    part.checkpoint_writer = &writer;
    obs::StatsDomain part_domain("part");
    part.stats_domain = &part_domain;
    auto interrupted = MineEndpointGrowth(db, part, GrowthConfig{});
    ASSERT_TRUE(interrupted.ok()) << interrupted.status();
    ASSERT_TRUE(interrupted->stats.truncated);
    auto ckpt = ReadCheckpointFile(path);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status();

    MinerOptions resume_options = base;
    resume_options.threads = c.resume_threads;
    resume_options.steal = c.resume_steal;
    resume_options.resume = &*ckpt;
    obs::StatsDomain resume_domain("resume");
    resume_options.stats_domain = &resume_domain;
    auto resumed = MineEndpointGrowth(db, resume_options,
                                      GrowthConfig{});
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_FALSE(resumed->stats.truncated);
    EXPECT_EQ(EmissionRender(*resumed, db.dict()),
              EmissionRender(*clean, db.dict()));
    EXPECT_EQ(ComparableMetricsJson(resumed->stats.metrics),
              ComparableMetricsJson(clean->stats.metrics));
    std::remove(path.c_str());
  }
}

TEST(CheckpointResumeValidationTest, MismatchedOptionsNameEveryField) {
  const IntervalDatabase db = MakeDb(42);
  MinerOptions options = BaseOptions(7);
  const std::string path = TempPath("resume_mismatch.tpmc");
  CheckpointWriter writer(path, 0.0);
  MinerOptions part = options;
  part.max_patterns = 1;
  part.checkpoint_writer = &writer;
  ASSERT_TRUE(MineEndpointGrowth(db, part, GrowthConfig{}).ok());
  auto ckpt = ReadCheckpointFile(path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();

  MinerOptions other = options;
  other.min_support = 0.5;
  other.pair_pruning = false;
  other.resume = &*ckpt;
  const Status st =
      MineEndpointGrowth(db, other, GrowthConfig{}).status();
  ASSERT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("min_support"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("pair_pruning"), std::string::npos) << st.ToString();
  EXPECT_EQ(st.message().find("postfix_pruning"), std::string::npos)
      << "unchanged field named: " << st.ToString();

  // A physical-projection baseline differs in algo.
  MinerOptions phys = options;
  phys.resume = &*ckpt;
  const Status algo_st = MakeTPrefixSpan()->Mine(db, phys).status();
  ASSERT_EQ(algo_st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(algo_st.message().find("algo"), std::string::npos)
      << algo_st.ToString();

  // The level-wise miners refuse any checkpoint, and any writer.
  for (bool resume : {true, false}) {
    CheckpointWriter lw_writer(TempPath("levelwise_refused.tpmc"), 0.0);
    MinerOptions lw = options;
    if (resume) {
      lw.resume = &*ckpt;
    } else {
      lw.checkpoint_writer = &lw_writer;
    }
    for (const Status& lw_st :
         {MineLevelwiseEndpoint(db, lw, LevelwiseConfig{}).status(),
          MineLevelwiseCoincidence(db, lw, LevelwiseConfig{}).status()}) {
      ASSERT_EQ(lw_st.code(), StatusCode::kInvalidArgument) << lw_st.ToString();
      EXPECT_NE(lw_st.message().find("do not checkpoint"), std::string::npos)
          << lw_st.ToString();
    }
    EXPECT_EQ(lw_writer.writes(), 0u);
  }

  // A different database differs in fingerprint.
  const IntervalDatabase other_db = MakeDb(43);
  MinerOptions same = options;
  same.resume = &*ckpt;
  const Status db_st =
      MineEndpointGrowth(other_db, same, GrowthConfig{}).status();
  ASSERT_EQ(db_st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(db_st.message().find("different database"), std::string::npos)
      << db_st.ToString();
  std::remove(path.c_str());
}

TEST(CheckpointResumeValidationTest, GatedWriterStillLeavesFinalCheckpoint) {
  // With a one-hour gate no interval write fires; the final checkpoint on
  // the truncated exit must still land and must still resume exactly.
  const IntervalDatabase db = MakeDb(44);
  const MinerOptions base = BaseOptions(7);
  auto clean = MineEndpointGrowth(db, base, GrowthConfig{});
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_GT(clean->patterns.size(), 1u);

  const std::string path = TempPath("resume_gated.tpmc");
  MinerOptions part = base;
  part.max_patterns = clean->patterns.size() - 1;
  CheckpointWriter writer(path, 3600.0);
  part.checkpoint_writer = &writer;
  auto truncated = MineEndpointGrowth(db, part, GrowthConfig{});
  ASSERT_TRUE(truncated.ok()) << truncated.status();
  ASSERT_TRUE(truncated->stats.truncated);
  EXPECT_EQ(writer.writes(), 1u);  // the final checkpoint only

  auto ckpt = ReadCheckpointFile(path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();
  MinerOptions resume = base;
  resume.resume = &*ckpt;
  auto resumed = MineEndpointGrowth(db, resume, GrowthConfig{});
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(EmissionRender(*resumed, db.dict()),
            EmissionRender(*clean, db.dict()));
  std::remove(path.c_str());
}

TEST(CheckpointResumeValidationTest, InjectedWriteFaultFailsTheRun) {
  const IntervalDatabase db = MakeDb(45);
  MinerOptions options = BaseOptions(7);
  const std::string path = TempPath("resume_fault.tpmc");
  CheckpointWriter writer(path, 0.0);
  options.checkpoint_writer = &writer;
  fault::ScopedFault fault("io.checkpoint.write", 1);
  const Status st =
      MineEndpointGrowth(db, options, GrowthConfig{}).status();
  ASSERT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.message().find("injected"), std::string::npos) << st.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tpm
