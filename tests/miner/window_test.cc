// Time-window constrained mining: semantics unit tests plus equivalence of
// every miner against the brute-force oracle under a window.

#include <gtest/gtest.h>

#include "core/containment.h"
#include "miner/miner.h"
#include "testing/test_util.h"

namespace tpm {
namespace {

using testing::CoincidenceStore;
using testing::EndpointStore;
using testing::RandomTinyDatabase;
using testing::Render;
using testing::Seq;

TEST(WindowContainmentTest, EndpointWindowSemantics) {
  Dictionary dict;
  // A=[0,10] before B=[20,30]: the arrangement spans 30 time units.
  const EndpointDatabase store =
      EndpointStore(Seq(&dict, {{'A', 0, 10}, {'B', 20, 30}}));
  const EndpointSequence es = store[0];
  auto p = EndpointPattern::Parse("<{A+}{A-}{B+}{B-}>", dict);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(Contains(es, *p));          // no window
  EXPECT_TRUE(Contains(es, *p, 30));      // exactly fits
  EXPECT_FALSE(Contains(es, *p, 29));     // one tick short
  // Single-interval pattern: window measured over ITS slices only.
  auto a = EndpointPattern::Parse("<{A+}{A-}>", dict);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(Contains(es, *a, 10));
  EXPECT_FALSE(Contains(es, *a, 9));
}

TEST(WindowContainmentTest, WindowPicksLaterOccurrence) {
  Dictionary dict;
  // Two A-B arrangements: a wide one and a tight one. The window should
  // accept via the tight occurrence even though the wide one fails.
  const EndpointDatabase store = EndpointStore(
      Seq(&dict, {{'A', 0, 2}, {'B', 50, 52}, {'A', 100, 102}, {'B', 104, 106}}));
  const EndpointSequence es = store[0];
  auto p = EndpointPattern::Parse("<{A+}{A-}{B+}{B-}>", dict);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(Contains(es, *p, 6));
  EXPECT_FALSE(Contains(es, *p, 3));
}

TEST(WindowContainmentTest, CoincidenceWindowSemantics) {
  Dictionary dict;
  // A=[0,10] overlaps B=[5,40]: segments (0,5)=A,(5,10)=AB,(10,40)=B.
  const CoincidenceDatabase store =
      CoincidenceStore(Seq(&dict, {{'A', 0, 10}, {'B', 5, 40}}));
  const CoincidenceSequence cs = store[0];
  auto p = CoincidencePattern::Parse("<(A)(A B)(B)>", dict);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(Contains(cs, *p));
  EXPECT_TRUE(Contains(cs, *p, 40));   // last segment ends at 40
  EXPECT_FALSE(Contains(cs, *p, 39));
  auto q = CoincidencePattern::Parse("<(A)(A B)>", dict);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(Contains(cs, *q, 10));   // (A) starts 0, (A B) ends 10
  EXPECT_FALSE(Contains(cs, *q, 9));
}

TEST(WindowMiningTest, WindowShrinksSupports) {
  IntervalDatabase db = RandomTinyDatabase(91, 40, 4, 4.0, 40);
  MinerOptions loose;
  loose.min_support = 2.0;
  auto full = MakePTPMinerE()->Mine(db, loose);
  ASSERT_TRUE(full.ok());

  MinerOptions tight = loose;
  tight.max_window = 10;
  auto windowed = MakePTPMinerE()->Mine(db, tight);
  ASSERT_TRUE(windowed.ok());

  EXPECT_LE(windowed->patterns.size(), full->patterns.size());
  // Every windowed pattern appears unwindowed with support >= windowed's.
  std::unordered_map<EndpointPattern, SupportCount, EndpointPatternHash> index;
  for (const auto& mp : full->patterns) index.emplace(mp.pattern, mp.support);
  for (const auto& mp : windowed->patterns) {
    auto it = index.find(mp.pattern);
    ASSERT_NE(it, index.end());
    EXPECT_GE(it->second, mp.support);
  }
}

struct WindowCase {
  uint64_t seed;
  TimeT window;
  uint32_t alphabet = 3;
};

// bit 0 pair, bit 1 postfix, bit 2 validity pruning.
MinerOptions WindowOptions(const WindowCase& c, uint32_t pruning_mask) {
  MinerOptions options;
  options.min_support = 0.2;
  options.max_window = c.window;
  options.pair_pruning = (pruning_mask & 1) != 0;
  options.postfix_pruning = (pruning_mask & 2) != 0;
  options.validity_pruning = (pruning_mask & 4) != 0;
  return options;
}

class WindowEquivalenceTest : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowEquivalenceTest, EndpointMinersAgreeUnderWindow) {
  const WindowCase& c = GetParam();
  IntervalDatabase db = RandomTinyDatabase(c.seed, 14, c.alphabet, 3.5, 18);
  const MinerOptions defaults = WindowOptions(c, 7);

  auto oracle = MakeBruteForceEndpointMiner()->Mine(db, defaults);
  ASSERT_TRUE(oracle.ok());
  const auto expected = Render(*oracle, db.dict());

  for (uint32_t mask = 0; mask < 8; ++mask) {
    auto ptpm = MakePTPMinerE()->Mine(db, WindowOptions(c, mask));
    ASSERT_TRUE(ptpm.ok());
    EXPECT_EQ(Render(*ptpm, db.dict()), expected)
        << "P-TPMiner/E diverges, mask=" << mask;
#ifndef TPM_OBS_DISABLED
    // With 8 symbols postfix pruning removes some, so the window `break`
    // is reached on a filtered item list.
    if (mask == 7 && c.alphabet >= 8) {
      EXPECT_GT(ptpm->stats.metrics.CounterValue("prune.postfix.hits"), 0u);
    }
#endif
  }

  auto tps = MakeTPrefixSpan()->Mine(db, defaults);
  ASSERT_TRUE(tps.ok());
  EXPECT_EQ(Render(*tps, db.dict()), expected) << "TPrefixSpan diverges";
}

TEST_P(WindowEquivalenceTest, CoincidenceMinersAgreeUnderWindow) {
  const WindowCase& c = GetParam();
  IntervalDatabase db =
      RandomTinyDatabase(c.seed + 100, 14, c.alphabet, 3.5, 18);
  const MinerOptions defaults = WindowOptions(c, 7);

  auto oracle = MakeBruteForceCoincidenceMiner()->Mine(db, defaults);
  ASSERT_TRUE(oracle.ok());
  const auto expected = Render(*oracle, db.dict());

  for (uint32_t mask = 0; mask < 8; ++mask) {
    auto ptpm = MakePTPMinerC()->Mine(db, WindowOptions(c, mask));
    ASSERT_TRUE(ptpm.ok());
    EXPECT_EQ(Render(*ptpm, db.dict()), expected)
        << "P-TPMiner/C diverges, mask=" << mask;
#ifndef TPM_OBS_DISABLED
    // With 8 symbols postfix pruning removes some, so the window `break`
    // is reached on a filtered item list.
    if (mask == 7 && c.alphabet >= 8) {
      EXPECT_GT(ptpm->stats.metrics.CounterValue("prune.postfix.hits"), 0u);
    }
#endif
  }

  auto ctm = MakeCTMiner()->Mine(db, defaults);
  ASSERT_TRUE(ctm.ok());
  EXPECT_EQ(Render(*ctm, db.dict()), expected) << "CTMiner diverges";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowEquivalenceTest,
    ::testing::Values(WindowCase{61, 5}, WindowCase{62, 10},
                      WindowCase{63, 15}, WindowCase{64, 3},
                      WindowCase{65, 25}, WindowCase{66, 1},
                      WindowCase{67, 8}, WindowCase{68, 12},
                      WindowCase{69, 6, /*alphabet=*/8}));

}  // namespace
}  // namespace tpm
