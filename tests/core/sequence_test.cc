#include "core/sequence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/database.h"
#include "testing/test_util.h"
#include "util/rng.h"
#include "util/string_util.h"

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

// IntervalDatabase::Validate checks every sequence in one flat pass; the
// reference validates sequence by sequence. Random databases mix touching,
// overlapping and nested same-symbol intervals, intervals added out of
// order, start > finish, and event ids past the dictionary (some too large
// for the flat array). Same symbols recur across sequences, so a stale entry
// from an earlier sequence must not count.
TEST(IntervalDatabaseTest, FlatValidateMatchesPerSequenceValidate) {
  auto reference = [](const IntervalDatabase& db) {
    for (size_t i = 0; i < db.size(); ++i) {
      Status s = db[i].Validate();
      if (!s.ok()) return s.WithContext(StringPrintf("sequence %zu", i));
    }
    return Status::OK();
  };
  Rng rng(20261019);
  size_t valid = 0;
  size_t invalid = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    IntervalDatabase db;
    testing::InternLetters(&db.dict(), 3);
    // Clean databases keep each symbol's intervals apart, so most pass.
    const bool clean = rng.Bernoulli(0.5);
    const size_t num_seqs = rng.Uniform(6) + 1;
    for (size_t q = 0; q < num_seqs; ++q) {
      std::vector<Interval> ivs;
      const size_t n = rng.Uniform(9);
      for (size_t k = 0; k < n; ++k) {
        EventId e = static_cast<EventId>(rng.Uniform(5));  // 3, 4: unnamed
        if (rng.Bernoulli(0.02)) e = rng.Bernoulli(0.5) ? (1u << 20) : kInvalidEvent;
        TimeT start = rng.UniformRange(0, 12);
        TimeT finish = start + rng.UniformRange(0, 6);
        if (clean) {
          // Interval k lies in its own time band [20k, 20k + 18].
          start += 20 * static_cast<TimeT>(k);
          finish += 20 * static_cast<TimeT>(k);
          if (rng.Bernoulli(0.01)) std::swap(start, finish);
        } else if (rng.Bernoulli(0.1)) {
          std::swap(start, finish);
        }
        ivs.emplace_back(e, start, finish);
      }
      std::shuffle(ivs.begin(), ivs.end(), rng);
      db.AddSequence(EventSequence(std::move(ivs)));
    }
    const Status want = reference(db);
    const Status got = db.Validate();
    ASSERT_EQ(got.code(), want.code()) << "trial " << trial << ": " << got;
    ASSERT_EQ(got.message(), want.message()) << "trial " << trial;
    ++(want.ok() ? valid : invalid);
  }
  EXPECT_GT(valid, 500u);
  EXPECT_GT(invalid, 500u);
}

}  // namespace
}  // namespace tpm
