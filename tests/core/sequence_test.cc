#include "core/sequence.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/database.h"
#include "testing/test_util.h"

namespace tpm {
namespace {

using testing::Seq;

TEST(IntervalTest, BasicProperties) {
  Interval iv(3, 5, 9);
  EXPECT_EQ(iv.Duration(), 4);
  EXPECT_FALSE(iv.IsPoint());
  EXPECT_TRUE(Interval(1, 2, 2).IsPoint());
  EXPECT_EQ(iv.ToString(), "(3,[5,9])");
}

TEST(IntervalTest, IntersectsIsClosedInterval) {
  EXPECT_TRUE(Interval(0, 1, 5).Intersects(Interval(0, 5, 9)));   // touch
  EXPECT_TRUE(Interval(0, 1, 5).Intersects(Interval(0, 3, 4)));   // contain
  EXPECT_FALSE(Interval(0, 1, 5).Intersects(Interval(0, 6, 9)));  // disjoint
  EXPECT_TRUE(Interval(0, 3, 3).Intersects(Interval(0, 1, 5)));   // point in
}

TEST(IntervalTest, CanonicalOrder) {
  EXPECT_LT(Interval(5, 1, 9), Interval(0, 2, 3));  // start first
  EXPECT_LT(Interval(5, 1, 3), Interval(0, 1, 9));  // then finish
  EXPECT_LT(Interval(0, 1, 3), Interval(5, 1, 3));  // then event
}

TEST(EventSequenceTest, NormalizeSortsAndDedups) {
  EventSequence s;
  s.Add(2, 5, 9);
  s.Add(1, 0, 3);
  s.Add(2, 5, 9);  // exact duplicate
  s.Normalize();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], Interval(1, 0, 3));
  EXPECT_EQ(s[1], Interval(2, 5, 9));
}

TEST(EventSequenceTest, ValidateAcceptsCleanSequence) {
  Dictionary dict;
  EventSequence s = Seq(&dict, {{'A', 0, 2}, {'B', 1, 5}, {'A', 4, 6}});
  EXPECT_TRUE(s.Validate().ok());
}

TEST(EventSequenceTest, ValidateRejectsReversedInterval) {
  EventSequence s;
  s.Add(0, 5, 2);
  s.Normalize();
  Status st = s.Validate();
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(EventSequenceTest, ValidateRejectsSameSymbolOverlap) {
  Dictionary dict;
  EventSequence s = Seq(&dict, {{'A', 0, 5}, {'A', 3, 9}});
  EXPECT_TRUE(s.Validate().IsInvalidArgument());
}

TEST(EventSequenceTest, ValidateRejectsSameSymbolTouch) {
  Dictionary dict;
  EventSequence s = Seq(&dict, {{'A', 0, 5}, {'A', 5, 9}});
  EXPECT_TRUE(s.Validate().IsInvalidArgument());
}

TEST(EventSequenceTest, MergeRepairsConflicts) {
  Dictionary dict;
  EventSequence s = Seq(&dict, {{'A', 0, 5}, {'A', 3, 9}, {'A', 9, 12}, {'B', 1, 2}});
  const size_t merges = s.MergeSameSymbolConflicts();
  EXPECT_EQ(merges, 2u);
  EXPECT_TRUE(s.Validate().ok());
  ASSERT_EQ(s.size(), 2u);  // one merged A + B
  EXPECT_EQ(s[0], Interval(*dict.Lookup("A"), 0, 12));
}

TEST(EventSequenceTest, MergeKeepsDisjointRepeats) {
  Dictionary dict;
  EventSequence s = Seq(&dict, {{'A', 0, 2}, {'A', 4, 6}});
  EXPECT_EQ(s.MergeSameSymbolConflicts(), 0u);
  EXPECT_EQ(s.size(), 2u);
}

TEST(EventSequenceTest, MinMaxTime) {
  Dictionary dict;
  EventSequence s = Seq(&dict, {{'B', 2, 20}, {'A', 1, 4}});
  EXPECT_EQ(s.MinTime(), 1);
  EXPECT_EQ(s.MaxTime(), 20);
  EXPECT_EQ(EventSequence().MinTime(), 0);
}

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  const EventId a = dict.Intern("alpha");
  const EventId b = dict.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("alpha"), a);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Name(a), "alpha");
  EXPECT_EQ(*dict.Lookup("beta"), b);
  EXPECT_TRUE(dict.Lookup("gamma").status().IsNotFound());
  EXPECT_EQ(dict.Name(999), "#999");  // fallback, no crash
}

TEST(IntervalDatabaseTest, StatsAndSupportConversion) {
  IntervalDatabase db;
  testing::InternLetters(&db.dict(), 2);
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 4}}));
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 2}, {'B', 1, 3}}));
  db.AddSequence(Seq(&db.dict(), {{'B', 5, 5}}));

  const DatabaseStats st = db.ComputeStats();
  EXPECT_EQ(st.num_sequences, 3u);
  EXPECT_EQ(st.num_intervals, 4u);
  EXPECT_EQ(st.max_intervals_per_sequence, 2u);
  EXPECT_EQ(st.min_time, 0);
  EXPECT_EQ(st.max_time, 5);
  EXPECT_NEAR(st.avg_intervals_per_sequence, 4.0 / 3.0, 1e-9);

  EXPECT_EQ(db.AbsoluteSupport(0.5), 2u);   // ceil(1.5)
  EXPECT_EQ(db.AbsoluteSupport(1.0), 3u);   // fraction 1.0 = all
  EXPECT_EQ(db.AbsoluteSupport(2.0), 2u);   // absolute count
  EXPECT_EQ(db.AbsoluteSupport(0.0001), 1u);
  // An absolute count rounds up like a fraction, and a count past the
  // largest SupportCount saturates instead of overflowing the cast.
  EXPECT_EQ(db.AbsoluteSupport(1.5), 2u);
  EXPECT_EQ(db.AbsoluteSupport(4294967297.0), UINT32_MAX);
  EXPECT_EQ(db.AbsoluteSupport(1e300), UINT32_MAX);
  EXPECT_EQ(db.AbsoluteSupport(4294967295.0), UINT32_MAX);
  EXPECT_EQ(db.AbsoluteSupport(4294967294.5), UINT32_MAX);
  EXPECT_EQ(db.AbsoluteSupport(4294967294.0), UINT32_MAX - 1);
}

TEST(IntervalDatabaseTest, ValidateCitesSequenceIndex) {
  IntervalDatabase db;
  testing::InternLetters(&db.dict(), 1);
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 2}}));
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 5}, {'A', 2, 8}}));
  Status st = db.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("sequence 1"), std::string::npos);
  EXPECT_GT(db.MergeSameSymbolConflicts(), 0u);
  EXPECT_TRUE(db.Validate().ok());
}

}  // namespace
}  // namespace tpm
