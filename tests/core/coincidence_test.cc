#include "core/coincidence.h"

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace tpm {
namespace {

using testing::CoincidenceStore;
using testing::SameInterval;
using testing::Seq;

TEST(CoincidenceSequenceTest, OverlapProducesThreeSegments) {
  Dictionary dict;
  // A overlaps B: A=[1,5], B=[3,8] -> (A)(A B)(B).
  EventSequence s = Seq(&dict, {{'A', 1, 5}, {'B', 3, 8}});
  const CoincidenceDatabase store = CoincidenceStore(s);
  const CoincidenceSequence cs = store[0];
  EXPECT_EQ(cs.ToString(dict), "<(A)(A B)(B)>");
  ASSERT_EQ(cs.num_segments(), 3u);
  // The A items in segments 0 and 1 are the same interval, which starts at
  // segment 0 and ends at segment 1.
  EXPECT_TRUE(SameInterval(cs, 0, 1));
  EXPECT_EQ(cs.alive_until(0), 1u);
  EXPECT_EQ(cs.alive_until(1), 1u);
}

TEST(CoincidenceSequenceTest, BeforeAndMeetsCollapse) {
  Dictionary dict;
  // A before B: the empty gap segment is dropped.
  EventSequence before = Seq(&dict, {{'A', 1, 2}, {'B', 5, 8}});
  EXPECT_EQ(CoincidenceStore(before)[0].ToString(dict), "<(A)(B)>");
  // A meets B: same coincidence sequence (the documented coarsening).
  EventSequence meets = Seq(&dict, {{'A', 1, 5}, {'B', 5, 8}});
  EXPECT_EQ(CoincidenceStore(meets)[0].ToString(dict), "<(A)(B)>");
}

TEST(CoincidenceSequenceTest, ContainsRelation) {
  Dictionary dict;
  // B during A: A=[1,9], B=[3,5] -> (A)(A B)(A).
  EventSequence s = Seq(&dict, {{'A', 1, 9}, {'B', 3, 5}});
  const CoincidenceDatabase store = CoincidenceStore(s);
  const CoincidenceSequence cs = store[0];
  EXPECT_EQ(cs.ToString(dict), "<(A)(A B)(A)>");
  // All three A items belong to one interval.
  const EventId a = *dict.Lookup("A");
  const uint32_t p0 = cs.FindInSegment(0, a);
  const uint32_t p2 = cs.FindInSegment(2, a);
  EXPECT_TRUE(SameInterval(cs, p0, p2));
  EXPECT_EQ(cs.alive_until(p0), 2u);
}

TEST(CoincidenceSequenceTest, PointEventGetsZeroLengthSegment) {
  Dictionary dict;
  // Point P at t=3 inside A=[1,5]: segments (A)[A P](A).
  EventSequence s = Seq(&dict, {{'A', 1, 5}, {'P', 3, 3}});
  const CoincidenceDatabase store = CoincidenceStore(s);
  const CoincidenceSequence cs = store[0];
  EXPECT_EQ(cs.ToString(dict), "<(A)(A P)(A)>");
  ASSERT_EQ(cs.num_segments(), 3u);
}

TEST(CoincidenceSequenceTest, RepeatedSymbolDistinctIntervals) {
  Dictionary dict;
  // Two A intervals separated by a gap, B spanning both.
  EventSequence s = Seq(&dict, {{'A', 1, 3}, {'A', 6, 9}, {'B', 2, 8}});
  const CoincidenceDatabase store = CoincidenceStore(s);
  const CoincidenceSequence cs = store[0];
  // Times 1,2,3,6,8,9: segments (1,2)=A; (2,3)=AB; (3,6)=B; (6,8)=AB; (8,9)=A.
  EXPECT_EQ(cs.ToString(dict), "<(A)(A B)(B)(A B)(A)>");
  const EventId a = *dict.Lookup("A");
  const uint32_t first_a = cs.FindInSegment(1, a);
  const uint32_t second_a = cs.FindInSegment(3, a);
  EXPECT_FALSE(SameInterval(cs, first_a, second_a));
  EXPECT_EQ(cs.alive_until(first_a), 1u);
  EXPECT_EQ(cs.alive_until(second_a), 4u);
}

TEST(CoincidenceSequenceTest, EmptySequence) {
  EventSequence s;
  const CoincidenceDatabase store = CoincidenceStore(s);
  const CoincidenceSequence cs = store[0];
  EXPECT_EQ(cs.num_segments(), 0u);
}

TEST(CoincidenceSequenceTest, EqualIntervalsShareAllSegments) {
  Dictionary dict;
  EventSequence s = Seq(&dict, {{'A', 2, 7}, {'B', 2, 7}});
  const CoincidenceDatabase store = CoincidenceStore(s);
  const CoincidenceSequence cs = store[0];
  EXPECT_EQ(cs.ToString(dict), "<(A B)>");
}

TEST(CoincidenceDatabaseTest, Builds) {
  IntervalDatabase db;
  testing::InternLetters(&db.dict(), 2);
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 2}, {'B', 1, 3}}));
  CoincidenceDatabase cdb = CoincidenceDatabase::FromDatabase(db);
  ASSERT_EQ(cdb.size(), 1u);
  EXPECT_EQ(cdb[0].num_segments(), 3u);
  EXPECT_GT(cdb.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace tpm
