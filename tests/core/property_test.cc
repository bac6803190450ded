// Property-based sweeps over randomized inputs: representation round-trips,
// pattern parse/print identity, self-containment of canonical realizations,
// and structural invariants of both representations.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "core/coincidence.h"
#include "core/containment.h"
#include "core/endpoint.h"
#include "testing/test_util.h"
#include "util/rng.h"

namespace tpm {
namespace {

using testing::CoincidenceStore;
using testing::EndpointStore;
using testing::RandomTinyDatabase;

class PropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertyTest, EndpointRepresentationIsLossless) {
  IntervalDatabase db = RandomTinyDatabase(GetParam(), 20, 5, 4.0, 30);
  const EndpointDatabase edb = EndpointDatabase::FromDatabase(db);
  for (size_t k = 0; k < db.size(); ++k) {
    const EventSequence& seq = db[k];
    const EndpointSequence es = edb[k];
    ASSERT_EQ(es.num_items(), seq.size() * 2);
    // Rebuild intervals from starts + partner wiring.
    std::vector<Interval> rebuilt;
    for (uint32_t i = 0; i < es.num_items(); ++i) {
      if (IsFinish(es.item(i))) continue;
      const uint32_t q = es.partner(i);
      EXPECT_EQ(es.partner(q), i);  // involution
      EXPECT_EQ(es.item(q), PartnerCode(es.item(i)));
      rebuilt.emplace_back(EndpointEvent(es.item(i)),
                           es.slice_time(es.item_slice(i)),
                           es.slice_time(es.item_slice(q)));
    }
    std::sort(rebuilt.begin(), rebuilt.end());
    EXPECT_EQ(rebuilt, seq.intervals());
  }
}

TEST_P(PropertyTest, SliceTimesStrictlyIncreaseAndItemsSorted) {
  IntervalDatabase db = RandomTinyDatabase(GetParam() + 1, 20, 5, 4.0, 30);
  const EndpointDatabase edb = EndpointDatabase::FromDatabase(db);
  for (size_t k = 0; k < edb.size(); ++k) {
    const EndpointSequence es = edb[k];
    for (uint32_t s = 0; s + 1 < es.num_slices(); ++s) {
      EXPECT_LT(es.slice_time(s), es.slice_time(s + 1));
    }
    for (uint32_t s = 0; s < es.num_slices(); ++s) {
      for (uint32_t i = es.slice_begin(s) + 1; i < es.slice_end(s); ++i) {
        EXPECT_LT(es.item(i - 1), es.item(i));
        EXPECT_EQ(es.item_slice(i), s);
      }
    }
  }
}

TEST_P(PropertyTest, CoincidenceStructureInvariants) {
  IntervalDatabase db = RandomTinyDatabase(GetParam() + 2, 20, 5, 4.0, 30);
  const CoincidenceDatabase cdb = CoincidenceDatabase::FromDatabase(db);
  for (size_t q = 0; q < db.size(); ++q) {
    const EventSequence& seq = db[q];
    const CoincidenceSequence cs = cdb[q];
    // The source interval covering item i: the one of its symbol alive over
    // the whole segment (unique, since same-symbol intervals never touch).
    auto source = [&](uint32_t i) {
      const uint32_t s = cs.item_segment(i);
      for (uint32_t k = 0; k < seq.size(); ++k) {
        if (seq[k].event == cs.item(i) && seq[k].start <= cs.seg_start_time(s) &&
            seq[k].finish >= cs.seg_end_time(s)) {
          return k;
        }
      }
      ADD_FAILURE() << "item " << i << " has no covering interval";
      return ~0u;
    };
    // Every interval covers a contiguous, correctly-bounded segment range,
    // and per segment each symbol appears at most once.
    std::map<uint32_t, std::set<uint32_t>> interval_segments;
    for (uint32_t s = 0; s < cs.num_segments(); ++s) {
      std::set<EventId> seen;
      EXPECT_GT(cs.seg_size(s), 0u);  // empty segments were dropped
      EXPECT_LE(cs.seg_start_time(s), cs.seg_end_time(s));
      if (s + 1 < cs.num_segments()) {
        EXPECT_LE(cs.seg_start_time(s), cs.seg_start_time(s + 1));
        EXPECT_LE(cs.seg_end_time(s), cs.seg_end_time(s + 1));
      }
      for (uint32_t i = cs.seg_begin(s); i < cs.seg_end(s); ++i) {
        EXPECT_TRUE(seen.insert(cs.item(i)).second)
            << "symbol repeated within a segment";
        EXPECT_EQ(cs.item_segment(i), s);
        EXPECT_GE(cs.alive_until(i), s);
        interval_segments[source(i)].insert(s);
      }
    }
    for (const auto& [iv, segs] : interval_segments) {
      // Contiguity: max - min + 1 == count.
      EXPECT_EQ(*segs.rbegin() - *segs.begin() + 1, segs.size())
          << "interval " << iv << " covers non-contiguous segments";
    }
    // Interval identity from segment times agrees with the source
    // intervals, and alive_until is the last segment of the item's interval.
    for (uint32_t i = 0; i < cs.num_items(); ++i) {
      const std::set<uint32_t>& segs = interval_segments[source(i)];
      EXPECT_EQ(cs.alive_until(i), *segs.rbegin());
      for (uint32_t j = 0; j < cs.num_items(); ++j) {
        if (cs.item(j) != cs.item(i)) continue;
        EXPECT_EQ(testing::SameInterval(cs, i, j), source(i) == source(j))
            << "items " << i << " and " << j;
      }
    }
  }
}

TEST_P(PropertyTest, PatternParsePrintRoundTrip) {
  // Generate random valid endpoint patterns directly, then round-trip them.
  Rng rng(GetParam() + 3);
  Dictionary dict;
  testing::InternLetters(&dict, 6);
  for (int trial = 0; trial < 30; ++trial) {
    // Build a random arrangement of 1-4 intervals and derive the pattern
    // from its endpoint representation (guaranteed valid).
    EventSequence seq;
    const int n = 1 + static_cast<int>(rng.Uniform(4));
    for (int k = 0; k < n; ++k) {
      const EventId e = static_cast<EventId>(rng.Uniform(6));
      const TimeT b = static_cast<TimeT>(rng.Uniform(12));
      const TimeT len = static_cast<TimeT>(rng.Uniform(8));
      seq.Add(e, b, b + len);
    }
    seq.MergeSameSymbolConflicts();
    const EndpointDatabase es_store = EndpointStore(seq);
    const EndpointSequence es = es_store[0];
    std::vector<std::vector<EndpointCode>> slices;
    for (uint32_t s = 0; s < es.num_slices(); ++s) {
      std::vector<EndpointCode> slice;
      for (uint32_t i = es.slice_begin(s); i < es.slice_end(s); ++i) {
        slice.push_back(es.item(i));
      }
      slices.push_back(std::move(slice));
    }
    const EndpointPattern pattern(slices);
    ASSERT_TRUE(pattern.Validate().ok()) << pattern.ToString(dict);
    auto back = EndpointPattern::Parse(pattern.ToString(dict), dict);
    ASSERT_TRUE(back.ok()) << pattern.ToString(dict) << ": " << back.status();
    EXPECT_EQ(*back, pattern);
    EXPECT_EQ(back->Hash(), pattern.Hash());
  }
}

TEST_P(PropertyTest, CanonicalRealizationContainsItsPattern) {
  // For every valid complete pattern: realize it as concrete intervals and
  // verify the realization contains the pattern (self-containment), plus the
  // realization's derived pattern equals the original.
  Rng rng(GetParam() + 4);
  Dictionary dict;
  testing::InternLetters(&dict, 5);
  for (int trial = 0; trial < 30; ++trial) {
    EventSequence seq;
    const int n = 1 + static_cast<int>(rng.Uniform(4));
    for (int k = 0; k < n; ++k) {
      seq.Add(static_cast<EventId>(rng.Uniform(5)),
              static_cast<TimeT>(rng.Uniform(10)),
              static_cast<TimeT>(rng.Uniform(10)) + 10);
    }
    seq.MergeSameSymbolConflicts();
    const EndpointDatabase es_store = EndpointStore(seq);
    const EndpointSequence es = es_store[0];
    std::vector<std::vector<EndpointCode>> slices;
    for (uint32_t s = 0; s < es.num_slices(); ++s) {
      std::vector<EndpointCode> slice;
      for (uint32_t i = es.slice_begin(s); i < es.slice_end(s); ++i) {
        slice.push_back(es.item(i));
      }
      slices.push_back(std::move(slice));
    }
    const EndpointPattern pattern(slices);

    EventSequence realization(pattern.ToCanonicalIntervals());
    ASSERT_TRUE(realization.Validate().ok());
    const EndpointDatabase res_store = EndpointStore(realization);
    const EndpointSequence res = res_store[0];
    EXPECT_TRUE(Contains(res, pattern)) << pattern.ToString(dict);
    // And the original sequence contains its own derived pattern.
    EXPECT_TRUE(Contains(es, pattern)) << pattern.ToString(dict);
  }
}

TEST_P(PropertyTest, ContainmentIsMonotoneUnderIntervalRemoval) {
  // If seq contains P, it contains P minus any one interval.
  IntervalDatabase db = RandomTinyDatabase(GetParam() + 5, 6, 3, 4.0, 12);
  Rng rng(GetParam() + 6);
  for (const EventSequence& seq : db.sequences()) {
    if (seq.size() < 2) continue;
    const EndpointDatabase es_store = EndpointStore(seq);
    const EndpointSequence es = es_store[0];
    // Derive a pattern from a random sub-multiset of the sequence itself.
    EventSequence sub;
    for (const Interval& iv : seq.intervals()) {
      if (rng.Bernoulli(0.7)) sub.Add(iv.event, iv.start, iv.finish);
    }
    sub.MergeSameSymbolConflicts();
    if (sub.empty()) continue;
    const EndpointDatabase ses_store = EndpointStore(sub);
    const EndpointSequence ses = ses_store[0];
    std::vector<std::vector<EndpointCode>> slices;
    for (uint32_t s = 0; s < ses.num_slices(); ++s) {
      std::vector<EndpointCode> slice;
      for (uint32_t i = ses.slice_begin(s); i < ses.slice_end(s); ++i) {
        slice.push_back(ses.item(i));
      }
      slices.push_back(std::move(slice));
    }
    const EndpointPattern pattern(slices);
    ASSERT_TRUE(Contains(es, pattern)) << seq.ToString();
  }
}

constexpr EventId kSeamSymbols = 9;

// Sequences whose views meet at seams in one store: an empty sequence, a
// lone point event, same-symbol runs, and a dense sequence.
std::vector<EventSequence> SeamSequences(Dictionary* dict) {
  std::vector<EventSequence> seqs;
  seqs.emplace_back();
  seqs.push_back(testing::Seq(dict, {{'A', 4, 4}}));
  seqs.push_back(testing::Seq(dict, {{'A', 1, 2}, {'A', 5, 8}, {'B', 2, 6},
                                     {'B', 7, 9}, {'A', 9, 9}}));
  // Slices and segments of 9+ items take FindInSlice/FindInSegment's
  // binary-search path.
  EventSequence dense;
  for (EventId e = 0; e < kSeamSymbols; ++e) {
    dense.Add(e, e, e + 20);
    dense.Add(e, 40, 40);
    dense.Add(e, 50 + e, 60);
  }
  dense.Normalize();
  seqs.push_back(std::move(dense));
  for (const EventSequence& seq : seqs) EXPECT_TRUE(seq.Validate().ok());
  return seqs;
}

// Every view of a multi-sequence store equals the only view of a store built
// from its sequence alone; a lookup never reaches into the next sequence.
// MemoryBytes counts exactly the elements the arrays hold.
TEST(FlatStoreTest, EndpointViewsMatchOneSequenceStores) {
  Dictionary dict;
  testing::InternLetters(&dict, kSeamSymbols);
  const std::vector<EventSequence> seqs = SeamSequences(&dict);
  const EndpointDatabase store = EndpointDatabase::FromSequences(seqs, kSeamSymbols);
  ASSERT_EQ(store.size(), seqs.size());
  size_t items = 0, slices = 0;
  for (size_t q = 0; q < seqs.size(); ++q) {
    SCOPED_TRACE(q);
    const EndpointDatabase alone = EndpointStore(seqs[q]);
    const EndpointSequence a = store[q];
    const EndpointSequence b = alone[0];
    EXPECT_EQ(a.ToString(dict), b.ToString(dict));
    ASSERT_EQ(a.num_items(), b.num_items());
    ASSERT_EQ(a.num_slices(), b.num_slices());
    for (uint32_t i = 0; i < a.num_items(); ++i) {
      EXPECT_EQ(a.item(i), b.item(i));
      EXPECT_EQ(a.item_slice(i), b.item_slice(i));
      EXPECT_EQ(a.partner(i), b.partner(i));
    }
    for (uint32_t g = 0; g < a.num_slices(); ++g) {
      EXPECT_EQ(a.slice_begin(g), b.slice_begin(g));
      EXPECT_EQ(a.slice_end(g), b.slice_end(g));
      EXPECT_EQ(a.slice_time(g), b.slice_time(g));
      for (EndpointCode c = 0; c < 2 * kSeamSymbols; ++c) {
        EXPECT_EQ(a.FindInSlice(g, c), b.FindInSlice(g, c));
      }
    }
    items += a.num_items();
    slices += a.num_slices();
  }
  EXPECT_EQ(store.MemoryBytes(),
            items * (sizeof(EndpointCode) + 2 * sizeof(uint32_t)) +
                (slices + 1) * sizeof(uint32_t) + slices * sizeof(TimeT) +
                2 * (seqs.size() + 1) * sizeof(uint32_t));
}

TEST(FlatStoreTest, CoincidenceViewsMatchOneSequenceStores) {
  Dictionary dict;
  testing::InternLetters(&dict, kSeamSymbols);
  const std::vector<EventSequence> seqs = SeamSequences(&dict);
  const CoincidenceDatabase store =
      CoincidenceDatabase::FromSequences(seqs, kSeamSymbols);
  ASSERT_EQ(store.size(), seqs.size());
  size_t items = 0, segments = 0;
  for (size_t q = 0; q < seqs.size(); ++q) {
    SCOPED_TRACE(q);
    const CoincidenceDatabase alone = CoincidenceStore(seqs[q]);
    const CoincidenceSequence a = store[q];
    const CoincidenceSequence b = alone[0];
    EXPECT_EQ(a.ToString(dict), b.ToString(dict));
    ASSERT_EQ(a.num_items(), b.num_items());
    ASSERT_EQ(a.num_segments(), b.num_segments());
    for (uint32_t i = 0; i < a.num_items(); ++i) {
      EXPECT_EQ(a.item(i), b.item(i));
      EXPECT_EQ(a.item_segment(i), b.item_segment(i));
      EXPECT_EQ(a.alive_until(i), b.alive_until(i));
    }
    for (uint32_t g = 0; g < a.num_segments(); ++g) {
      EXPECT_EQ(a.seg_begin(g), b.seg_begin(g));
      EXPECT_EQ(a.seg_end(g), b.seg_end(g));
      EXPECT_EQ(a.seg_start_time(g), b.seg_start_time(g));
      EXPECT_EQ(a.seg_end_time(g), b.seg_end_time(g));
      for (EventId e = 0; e < kSeamSymbols; ++e) {
        EXPECT_EQ(a.FindInSegment(g, e), b.FindInSegment(g, e));
      }
    }
    items += a.num_items();
    segments += a.num_segments();
  }
  EXPECT_EQ(store.MemoryBytes(),
            items * (sizeof(EventId) + 2 * sizeof(uint32_t)) +
                (segments + 1) * sizeof(uint32_t) + 2 * segments * sizeof(TimeT) +
                2 * (seqs.size() + 1) * sizeof(uint32_t));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

}  // namespace
}  // namespace tpm
