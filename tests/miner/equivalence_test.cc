// Cross-miner equivalence: every miner of a pattern language must produce
// exactly the same (pattern, support) set as the brute-force oracle, on
// randomized databases stressing repeats, point events and shared endpoints.

#include <gtest/gtest.h>

#include "miner/miner.h"
#include "testing/test_util.h"

namespace tpm {
namespace {

using testing::RandomTinyDatabase;
using testing::Render;

struct EquivCase {
  uint64_t seed;
  uint32_t num_sequences;
  uint32_t alphabet;
  double avg_intervals;
  TimeT horizon;
  double minsup;
};

void PrintTo(const EquivCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " n=" << c.num_sequences << " sigma=" << c.alphabet
      << " avg=" << c.avg_intervals << " horizon=" << c.horizon
      << " minsup=" << c.minsup;
}

class EndpointEquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(EndpointEquivalenceTest, AllEndpointMinersAgree) {
  const EquivCase& c = GetParam();
  IntervalDatabase db = RandomTinyDatabase(c.seed, c.num_sequences, c.alphabet,
                                           c.avg_intervals, c.horizon);
  ASSERT_TRUE(db.Validate().ok());
  MinerOptions options;
  options.min_support = c.minsup;

  auto oracle = MakeBruteForceEndpointMiner()->Mine(db, options);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_FALSE(oracle->stats.truncated);
  const auto expected = Render(*oracle, db.dict());

  auto ptpm = MakePTPMinerE()->Mine(db, options);
  ASSERT_TRUE(ptpm.ok()) << ptpm.status();
  EXPECT_EQ(Render(*ptpm, db.dict()), expected) << "P-TPMiner/E diverges";

  auto tps = MakeTPrefixSpan()->Mine(db, options);
  ASSERT_TRUE(tps.ok()) << tps.status();
  EXPECT_EQ(Render(*tps, db.dict()), expected) << "TPrefixSpan diverges";

  auto lw = MakeLevelwiseMiner()->Mine(db, options);
  ASSERT_TRUE(lw.ok()) << lw.status();
  EXPECT_EQ(Render(*lw, db.dict()), expected) << "IEMiner-LW diverges";
}

TEST_P(EndpointEquivalenceTest, PruningTogglesDoNotChangeResults) {
  const EquivCase& c = GetParam();
  IntervalDatabase db = RandomTinyDatabase(c.seed, c.num_sequences, c.alphabet,
                                           c.avg_intervals, c.horizon);
  MinerOptions base;
  base.min_support = c.minsup;
  auto reference = MakePTPMinerE()->Mine(db, base);
  ASSERT_TRUE(reference.ok());
  const auto expected = Render(*reference, db.dict());

  for (int mask = 0; mask < 8; ++mask) {
    MinerOptions options = base;
    options.pair_pruning = (mask & 1) != 0;
    options.postfix_pruning = (mask & 2) != 0;
    options.validity_pruning = (mask & 4) != 0;
    auto r = MakePTPMinerE()->Mine(db, options);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(Render(*r, db.dict()), expected)
        << "pruning mask " << mask << " changed the result set";
  }
}

class CoincidenceEquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(CoincidenceEquivalenceTest, AllCoincidenceMinersAgree) {
  const EquivCase& c = GetParam();
  IntervalDatabase db = RandomTinyDatabase(c.seed, c.num_sequences, c.alphabet,
                                           c.avg_intervals, c.horizon);
  ASSERT_TRUE(db.Validate().ok());
  MinerOptions options;
  options.min_support = c.minsup;

  auto oracle = MakeBruteForceCoincidenceMiner()->Mine(db, options);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_FALSE(oracle->stats.truncated);
  const auto expected = Render(*oracle, db.dict());

  auto ptpm = MakePTPMinerC()->Mine(db, options);
  ASSERT_TRUE(ptpm.ok()) << ptpm.status();
  EXPECT_EQ(Render(*ptpm, db.dict()), expected) << "P-TPMiner/C diverges";

  auto ctm = MakeCTMiner()->Mine(db, options);
  ASSERT_TRUE(ctm.ok()) << ctm.status();
  EXPECT_EQ(Render(*ctm, db.dict()), expected) << "CTMiner diverges";
}

// Every pair/postfix pruning mask of P-TPMiner/C must reproduce CTMiner, the
// unpruned physical-projection baseline.
TEST_P(CoincidenceEquivalenceTest, PruningTogglesDoNotChangeResults) {
  const EquivCase& c = GetParam();
  IntervalDatabase db = RandomTinyDatabase(c.seed, c.num_sequences, c.alphabet,
                                           c.avg_intervals, c.horizon);
  MinerOptions base;
  base.min_support = c.minsup;
  auto reference = MakeCTMiner()->Mine(db, base);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const auto expected = Render(*reference, db.dict());

  for (int mask = 0; mask < 4; ++mask) {
    MinerOptions options = base;
    options.pair_pruning = (mask & 1) != 0;
    options.postfix_pruning = (mask & 2) != 0;
    auto r = MakePTPMinerC()->Mine(db, options);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(Render(*r, db.dict()), expected)
        << "pruning mask " << mask << " changed the result set";
  }
}

// Small, dense cases with tiny alphabets maximize repeats and simultaneity.
INSTANTIATE_TEST_SUITE_P(
    Sweep, EndpointEquivalenceTest,
    ::testing::Values(EquivCase{1, 12, 3, 3.0, 12, 0.25},
                      EquivCase{2, 10, 2, 4.0, 10, 0.3},
                      EquivCase{3, 15, 4, 2.5, 15, 0.2},
                      EquivCase{4, 8, 3, 5.0, 8, 0.4},
                      EquivCase{5, 20, 5, 2.0, 20, 0.15},
                      EquivCase{6, 10, 2, 6.0, 9, 0.5},
                      EquivCase{7, 14, 3, 3.5, 30, 0.25},
                      EquivCase{8, 25, 6, 2.0, 25, 0.12}));

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoincidenceEquivalenceTest,
    ::testing::Values(EquivCase{11, 12, 3, 3.0, 12, 0.25},
                      EquivCase{12, 10, 2, 4.0, 10, 0.3},
                      EquivCase{13, 15, 4, 2.5, 15, 0.2},
                      EquivCase{14, 8, 3, 5.0, 8, 0.4},
                      EquivCase{15, 20, 5, 2.0, 20, 0.15},
                      EquivCase{16, 10, 2, 6.0, 9, 0.5},
                      EquivCase{17, 14, 3, 3.5, 30, 0.25},
                      EquivCase{18, 25, 6, 2.0, 25, 0.12}));

}  // namespace
}  // namespace tpm
