#include "core/validate.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/coincidence.h"
#include "core/endpoint.h"
#include "miner/options.h"
#include "testing/test_util.h"

namespace tpm {
namespace {

using testing::InternLetters;
using testing::RandomTinyDatabase;
using testing::Seq;

EndpointPattern ParsePattern(const std::string& text, const Dictionary& dict) {
  auto r = EndpointPattern::Parse(text, dict);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

TEST(ValidateDatabaseTest, AcceptsValidDatabase) {
  IntervalDatabase db;
  db.AddSequence(Seq(&db.dict(), {{'A', 1, 5}, {'B', 3, 8}}));
  db.AddSequence(Seq(&db.dict(), {{'A', 2, 2}, {'C', 4, 6}}));
  EXPECT_TRUE(ValidateDatabase(db).ok());
  EXPECT_TRUE(ValidateDatabaseDeep(db).ok());
}

TEST(ValidateDatabaseTest, RejectsUnresolvableEventId) {
  // db.Validate() only checks sequence structure; an event id without a
  // dictionary entry is exactly the gap ValidateDatabase closes.
  IntervalDatabase db;
  db.dict().Intern("A");
  EventSequence s;
  s.Add(7, 1, 5);  // id 7: no dictionary entry
  s.Normalize();
  db.AddSequence(std::move(s));
  ASSERT_TRUE(db.Validate().ok());
  const Status st = ValidateDatabase(db);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("dictionary"), std::string::npos)
      << st.ToString();
}

TEST(ValidateDatabaseTest, RejectsStartAfterFinish) {
  IntervalDatabase db;
  db.dict().Intern("A");
  EventSequence s;
  s.Add(0, 9, 2);  // start > finish
  s.Normalize();
  db.AddSequence(std::move(s));
  EXPECT_FALSE(ValidateDatabase(db).ok());
}

TEST(ValidateEndpointSequenceTest, AcceptsBuiltSequences) {
  Dictionary dict;
  const EventSequence s =
      Seq(&dict, {{'A', 1, 5}, {'B', 5, 9}, {'C', 5, 7}, {'D', 3, 3}});
  EXPECT_TRUE(ValidateEndpointSequence(testing::EndpointStore(s)[0]).ok());
}

TEST(ValidateCoincidenceSequenceTest, AcceptsBuiltSequences) {
  Dictionary dict;
  const EventSequence s =
      Seq(&dict, {{'A', 1, 5}, {'B', 5, 9}, {'C', 5, 7}, {'D', 3, 3}});
  EXPECT_TRUE(ValidateCoincidenceSequence(testing::CoincidenceStore(s)[0]).ok());
}

// A view hand-built over copies of a store's arrays, with every alive_until
// moved by one in turn: each must be rejected. The second sequence's two A
// intervals sit in adjacent segments that do not meet in time ((1,2) and
// (5,8)), so only the segment-time rule tells them apart.
TEST(ValidateCoincidenceSequenceTest, RejectsAliveUntilOffByOne) {
  Dictionary dict;
  const EventSequence seqs[] = {
      Seq(&dict, {{'A', 1, 9}, {'B', 3, 5}, {'C', 5, 5}}),
      Seq(&dict, {{'A', 1, 2}, {'A', 5, 8}}),
      Seq(&dict, {{'A', 1, 3}, {'A', 6, 9}, {'B', 2, 8}}),
  };
  for (const EventSequence& seq : seqs) {
    SCOPED_TRACE(seq.ToString());
    const CoincidenceDatabase store = testing::CoincidenceStore(seq);
    const CoincidenceSequence cs = store[0];
    std::vector<EventId> items;
    std::vector<uint32_t> item_segment, alive_until, seg_items;
    std::vector<TimeT> starts, ends;
    for (uint32_t i = 0; i < cs.num_items(); ++i) {
      items.push_back(cs.item(i));
      item_segment.push_back(cs.item_segment(i));
      alive_until.push_back(cs.alive_until(i));
    }
    for (uint32_t g = 0; g < cs.num_segments(); ++g) {
      seg_items.push_back(cs.seg_begin(g));
      starts.push_back(cs.seg_start_time(g));
      ends.push_back(cs.seg_end_time(g));
    }
    seg_items.push_back(cs.num_items());
    auto view = [&] {
      return CoincidenceSequence({items.data(), item_segment.data(), alive_until.data(),
                                  seg_items.data(), starts.data(), ends.data(), 0,
                                  cs.num_items(), cs.num_segments()});
    };
    ASSERT_TRUE(ValidateCoincidenceSequence(view()).ok());
    for (uint32_t i = 0; i < cs.num_items(); ++i) {
      const uint32_t good = alive_until[i];
      for (uint32_t bad : {good + 1, good - 1}) {
        if (bad == ~0u) continue;  // no segment before the first
        alive_until[i] = bad;
        EXPECT_FALSE(ValidateCoincidenceSequence(view()).ok())
            << "item " << i << " alive_until " << bad;
      }
      alive_until[i] = good;
    }
  }
}

TEST(ValidateSequencePropertyTest, RandomDatabasesPassDeepValidation) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const IntervalDatabase db = RandomTinyDatabase(seed, 20, 4, 5.0, 30);
    ASSERT_TRUE(db.Validate().ok());
    const Status st = ValidateDatabaseDeep(db);
    EXPECT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();
  }
}

TEST(ValidatePatternTest, AcceptsCompletePattern) {
  Dictionary dict;
  InternLetters(&dict, 3);
  EXPECT_TRUE(ValidatePattern(ParsePattern("<{A+}{B+}{A- B-}>", dict)).ok());
}

TEST(ValidatePatternTest, RejectsIncompletePattern) {
  // Flattened ctor bypasses Parse's validation: A+ is never closed.
  const EndpointPattern p({MakeStart(0)}, {0, 1});
  ASSERT_TRUE(p.Validate().ok());
  const Status st = ValidatePattern(p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("incomplete"), std::string::npos);
}

TEST(ValidatePatternTest, RejectsUnsortedSlice) {
  // Slice {B+ A+} violates in-slice canonical order.
  const EndpointPattern p(
      {MakeStart(1), MakeStart(0), MakeFinish(0), MakeFinish(1)}, {0, 2, 4});
  EXPECT_FALSE(ValidatePattern(p).ok());
}

TEST(ValidatePatternTest, AcceptsCoincidencePattern) {
  Dictionary dict;
  InternLetters(&dict, 2);
  auto r = CoincidencePattern::Parse("<(A)(A B)(B)>", dict);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(ValidatePattern(*r).ok());
}

TEST(PrefixOfTest, DropsLastOpenedInterval) {
  Dictionary dict;
  InternLetters(&dict, 2);
  // B opens last; its FIFO-paired finish is in the shared slice.
  const EndpointPattern p = ParsePattern("<{A+}{B+}{A- B-}>", dict);
  EXPECT_EQ(internal::PrefixOf(p), ParsePattern("<{A+}{A-}>", dict));
}

TEST(PrefixOfTest, SequentialIntervals) {
  Dictionary dict;
  InternLetters(&dict, 2);
  const EndpointPattern p = ParsePattern("<{A+}{A-}{B+}{B-}>", dict);
  EXPECT_EQ(internal::PrefixOf(p), ParsePattern("<{A+}{A-}>", dict));
}

TEST(PrefixOfTest, RepeatedSymbolDropsSecondInterval) {
  Dictionary dict;
  InternLetters(&dict, 1);
  const EndpointPattern p = ParsePattern("<{A+}{A-}{A+}{A-}>", dict);
  EXPECT_EQ(internal::PrefixOf(p), ParsePattern("<{A+}{A-}>", dict));
}

TEST(PrefixOfTest, SingleIntervalYieldsEmpty) {
  Dictionary dict;
  InternLetters(&dict, 1);
  EXPECT_TRUE(internal::PrefixOf(ParsePattern("<{A+}{A-}>", dict)).empty());
}

TEST(ValidateSupportMonotonicityTest, AcceptsConsistentSupports) {
  Dictionary dict;
  InternLetters(&dict, 2);
  std::vector<MinedPattern<EndpointPattern>> patterns;
  patterns.push_back({ParsePattern("<{A+}{A-}>", dict), 10});
  patterns.push_back({ParsePattern("<{A+}{A-}{B+}{B-}>", dict), 4});
  EXPECT_TRUE(ValidateSupportMonotonicity(patterns).ok());
}

TEST(ValidateSupportMonotonicityTest, RejectsExtensionAbovePrefix) {
  Dictionary dict;
  InternLetters(&dict, 2);
  std::vector<MinedPattern<EndpointPattern>> patterns;
  patterns.push_back({ParsePattern("<{A+}{A-}>", dict), 3});
  patterns.push_back({ParsePattern("<{A+}{A-}{B+}{B-}>", dict), 8});
  const Status st = ValidateSupportMonotonicity(patterns);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInternal());
}

TEST(ValidateSupportMonotonicityTest, SkipsWhenPrefixAbsent) {
  Dictionary dict;
  InternLetters(&dict, 2);
  // Prefix not in the set (e.g. filtered result); nothing to compare.
  std::vector<MinedPattern<EndpointPattern>> patterns;
  patterns.push_back({ParsePattern("<{A+}{A-}{B+}{B-}>", dict), 8});
  EXPECT_TRUE(ValidateSupportMonotonicity(patterns).ok());
}

#if TPM_VALIDATORS_ENABLED
TEST(DcheckDeathTest, FiresOnViolatedInvariant) {
  EXPECT_DEATH(TPM_DCHECK(1 + 1 == 3), "TPM_DCHECK failed");
  EXPECT_DEATH(TPM_DCHECK_OK(Status::Internal("boom")),
               "TPM_DCHECK_OK failed");
}
#endif

TEST(DcheckTest, PassingConditionIsSilent) {
  TPM_DCHECK(1 + 1 == 2);
  TPM_DCHECK_OK(Status::OK());
}

}  // namespace
}  // namespace tpm
