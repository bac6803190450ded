#include "core/containment.h"

#include <gtest/gtest.h>

#include <deque>

#include "testing/test_util.h"

namespace tpm {
namespace {

using testing::Seq;

class ContainmentTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::InternLetters(&dict_, 6); }

  // Each view points into a one-sequence store the fixture keeps alive.
  EndpointSequence Endpoints(std::initializer_list<std::tuple<char, TimeT, TimeT>> ivs) {
    const EventSequence s = Seq(&dict_, ivs);
    return endpoint_stores_.emplace_back(testing::EndpointStore(s))[0];
  }
  CoincidenceSequence Coincidences(
      std::initializer_list<std::tuple<char, TimeT, TimeT>> ivs) {
    const EventSequence s = Seq(&dict_, ivs);
    return coincidence_stores_.emplace_back(testing::CoincidenceStore(s))[0];
  }
  EndpointPattern EP(const std::string& text) {
    auto r = EndpointPattern::Parse(text, dict_);
    EXPECT_TRUE(r.ok()) << r.status();
    return *r;
  }
  CoincidencePattern CP(const std::string& text) {
    auto r = CoincidencePattern::Parse(text, dict_);
    EXPECT_TRUE(r.ok()) << r.status();
    return *r;
  }

  Dictionary dict_;
  std::deque<EndpointDatabase> endpoint_stores_;
  std::deque<CoincidenceDatabase> coincidence_stores_;
};

TEST_F(ContainmentTest, SimpleOverlapPattern) {
  // A overlaps B.
  EndpointSequence s = Endpoints({{'A', 1, 5}, {'B', 3, 8}});
  EXPECT_TRUE(Contains(s, EP("<{A+}{B+}{A-}{B-}>")));
  EXPECT_TRUE(Contains(s, EP("<{A+}{A-}>")));
  EXPECT_TRUE(Contains(s, EP("<{B+}{B-}>")));
  EXPECT_TRUE(Contains(s, EP("<{A+}{B+}{B-}>")));  // incomplete B-free suffix
  EXPECT_FALSE(Contains(s, EP("<{A+}{A-}{B+}{B-}>")));  // A before B: no
  EXPECT_FALSE(Contains(s, EP("<{A+ B+}{A-}{B-}>")));   // A starts B: no
}

TEST_F(ContainmentTest, PartnerConsistencyBlocksFalseMatch) {
  // The canonical counterexample from DESIGN.md §1.1: A=[1,2], A=[4,9],
  // B=[3,5]. Naive endpoint subsequence matching would accept
  // <{A+}{B+}{A-}> by pairing the first A+ with the second interval's A-,
  // but no single A interval overlaps B that way.
  EndpointSequence s = Endpoints({{'A', 1, 2}, {'A', 4, 9}, {'B', 3, 5}});
  EXPECT_FALSE(Contains(s, EP("<{A+}{B+}{A-}>")));
  EXPECT_FALSE(Contains(s, EP("<{A+}{B+}{A-}{B-}>")));
  // But B+ then the second A's endpoints do form "B overlaps A".
  EXPECT_TRUE(Contains(s, EP("<{B+}{A+}{B-}{A-}>")));
  // And "A before B" via the first A interval holds.
  EXPECT_TRUE(Contains(s, EP("<{A+}{A-}{B+}{B-}>")));
}

TEST_F(ContainmentTest, SimultaneousSliceSubset) {
  // A meets B while C starts with B: slice {A- B+ C+}.
  EndpointSequence s = Endpoints({{'A', 1, 5}, {'B', 5, 9}, {'C', 5, 7}});
  EXPECT_TRUE(Contains(s, EP("<{A+}{A- B+}{B-}>")));
  EXPECT_TRUE(Contains(s, EP("<{A+}{A- C+}{C-}>")));
  EXPECT_TRUE(Contains(s, EP("<{B+ C+}{C-}{B-}>")));
  EXPECT_FALSE(Contains(s, EP("<{B+ C+}{B-}{C-}>")));  // wrong finish order
}

TEST_F(ContainmentTest, PointEventPattern) {
  EndpointSequence s = Endpoints({{'A', 1, 5}, {'P', 3, 3}});
  EXPECT_TRUE(Contains(s, EP("<{P+ P-}>")));
  EXPECT_TRUE(Contains(s, EP("<{A+}{P+ P-}{A-}>")));  // P during A
  // A is not a point event: {A+ A-} in one slice must not match.
  EXPECT_FALSE(Contains(s, EP("<{A+ A-}>")));
}

TEST_F(ContainmentTest, EmptyPatternMatchesEverything) {
  EndpointSequence s = Endpoints({{'A', 1, 2}});
  EXPECT_TRUE(Contains(s, EndpointPattern()));
}

TEST_F(ContainmentTest, CoincidenceBasics) {
  // A overlaps B -> (A)(A B)(B).
  CoincidenceSequence s = Coincidences({{'A', 1, 5}, {'B', 3, 8}});
  EXPECT_TRUE(Contains(s, CP("<(A)(A B)(B)>")));
  EXPECT_TRUE(Contains(s, CP("<(A)(B)>")));
  EXPECT_TRUE(Contains(s, CP("<(A B)>")));
  EXPECT_FALSE(Contains(s, CP("<(B)(A)>")));
  EXPECT_FALSE(Contains(s, CP("<(A B)(A)>")));  // A does not outlive B
}

TEST_F(ContainmentTest, CoincidenceRunIdentity) {
  // Two A intervals with B between: (A)(A B)(B)(A B)(A).
  CoincidenceSequence s = Coincidences({{'A', 1, 3}, {'A', 6, 9}, {'B', 2, 8}});
  // (A)(A) requires ONE interval alive at two matched segments; each A
  // interval spans two segments, so this holds.
  EXPECT_TRUE(Contains(s, CP("<(A)(A)>")));
  // (A)(A)(A) would need one interval alive at three increasing segments.
  EXPECT_FALSE(Contains(s, CP("<(A)(A)(A)>")));
  // (A)(B)(A): runs are separate, distinct intervals allowed.
  EXPECT_TRUE(Contains(s, CP("<(A)(B)(A)>")));
  // (A B)(A B) -> needs both A and B alive as the same intervals at two
  // segments; B spans segments 1..3 but each A only covers one shared
  // segment with B plus one alone... A1 alive segs 0-1, B alive 1-3:
  // shared segments {1} only, so no.
  EXPECT_FALSE(Contains(s, CP("<(A B)(A B)>")));
}

TEST_F(ContainmentTest, CoincidenceDuring) {
  // B during A -> (A)(A B)(A).
  CoincidenceSequence s = Coincidences({{'A', 1, 9}, {'B', 3, 5}});
  EXPECT_TRUE(Contains(s, CP("<(A)(A B)(A)>")));
  EXPECT_TRUE(Contains(s, CP("<(A)(B)(A)>")));  // subset semantics
  EXPECT_FALSE(Contains(s, CP("<(B)(B)>")));    // B covers one segment only
}

TEST_F(ContainmentTest, SupportCounting) {
  IntervalDatabase db;
  testing::InternLetters(&db.dict(), 3);
  db.AddSequence(Seq(&db.dict(), {{'A', 1, 5}, {'B', 3, 8}}));   // A overlaps B
  db.AddSequence(Seq(&db.dict(), {{'A', 1, 2}, {'B', 4, 6}}));   // A before B
  db.AddSequence(Seq(&db.dict(), {{'B', 1, 4}}));                // B only
  EndpointDatabase edb = EndpointDatabase::FromDatabase(db);
  auto ep = EndpointPattern::Parse("<{A+}{A-}{B+}{B-}>", db.dict());
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(CountSupport(edb, *ep), 1u);
  auto any_b = EndpointPattern::Parse("<{B+}{B-}>", db.dict());
  ASSERT_TRUE(any_b.ok());
  EXPECT_EQ(CountSupport(edb, *any_b), 3u);

  CoincidenceDatabase cdb = CoincidenceDatabase::FromDatabase(db);
  auto cp = CoincidencePattern::Parse("<(A)(B)>", db.dict());
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(CountSupport(cdb, *cp), 2u);
}

}  // namespace
}  // namespace tpm
