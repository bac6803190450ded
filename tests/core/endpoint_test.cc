#include "core/endpoint.h"

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace tpm {
namespace {

using testing::EndpointStore;
using testing::Seq;

TEST(EndpointSequenceTest, BasicConversion) {
  Dictionary dict;
  // A overlaps B: A=[1,5], B=[3,8].
  EventSequence s = Seq(&dict, {{'A', 1, 5}, {'B', 3, 8}});
  const EndpointDatabase store = EndpointStore(s);
  const EndpointSequence es = store[0];

  ASSERT_EQ(es.num_slices(), 4u);
  ASSERT_EQ(es.num_items(), 4u);
  EXPECT_EQ(es.ToString(dict), "<{A+}{B+}{A-}{B-}>");
  EXPECT_EQ(es.slice_time(0), 1);
  EXPECT_EQ(es.slice_time(3), 8);
  // Partner wiring: item 0 (A+) <-> item 2 (A-), item 1 (B+) <-> item 3 (B-).
  EXPECT_EQ(es.partner(0), 2u);
  EXPECT_EQ(es.partner(2), 0u);
  EXPECT_EQ(es.partner(1), 3u);
  EXPECT_EQ(es.partner(3), 1u);
  EXPECT_EQ(es.item_slice(2), 2u);
}

TEST(EndpointSequenceTest, SimultaneousEndpointsShareSlice) {
  Dictionary dict;
  // A meets B at t=5, C starts at 5 too.
  EventSequence s = Seq(&dict, {{'A', 1, 5}, {'B', 5, 9}, {'C', 5, 7}});
  const EndpointDatabase store = EndpointStore(s);
  const EndpointSequence es = store[0];
  ASSERT_EQ(es.num_slices(), 4u);  // times 1, 5, 7, 9
  EXPECT_EQ(es.ToString(dict), "<{A+}{A- B+ C+}{C-}{B-}>");
  // In-slice canonical order: A- (code 1) < B+ (code 2) < C+ (code 4).
  EXPECT_EQ(es.slice_size(1), 3u);
}

TEST(EndpointSequenceTest, PointEventBothEndpointsSameSlice) {
  Dictionary dict;
  EventSequence s = Seq(&dict, {{'A', 3, 3}});
  const EndpointDatabase store = EndpointStore(s);
  const EndpointSequence es = store[0];
  ASSERT_EQ(es.num_slices(), 1u);
  EXPECT_EQ(es.ToString(dict), "<{A+ A-}>");
  EXPECT_EQ(es.partner(0), 1u);
  EXPECT_EQ(es.partner(1), 0u);
}

TEST(EndpointSequenceTest, RepeatedSymbolFifoPairing) {
  Dictionary dict;
  // Two A intervals, non-touching: A=[1,2], A=[4,9]; B=[3,5] in between.
  EventSequence s = Seq(&dict, {{'A', 1, 2}, {'A', 4, 9}, {'B', 3, 5}});
  const EndpointDatabase store = EndpointStore(s);
  const EndpointSequence es = store[0];
  EXPECT_EQ(es.ToString(dict), "<{A+}{A-}{B+}{A+}{B-}{A-}>");
  EXPECT_EQ(es.partner(0), 1u);  // first A+ -> first A-
  EXPECT_EQ(es.partner(3), 5u);  // second A+ -> last A-
  EXPECT_EQ(es.partner(5), 3u);
}

TEST(EndpointSequenceTest, EmptySequence) {
  EventSequence s;
  const EndpointDatabase store = EndpointStore(s);
  const EndpointSequence es = store[0];
  EXPECT_EQ(es.num_slices(), 0u);
  EXPECT_EQ(es.num_items(), 0u);
}

TEST(EndpointSequenceTest, FindInSlice) {
  Dictionary dict;
  EventSequence s = Seq(&dict, {{'A', 1, 5}, {'B', 5, 9}, {'C', 5, 7}});
  const EndpointDatabase store = EndpointStore(s);
  const EndpointSequence es = store[0];
  const EventId a = *dict.Lookup("A");
  const EventId b = *dict.Lookup("B");
  EXPECT_EQ(es.FindInSlice(1, MakeFinish(a)), 1u);
  EXPECT_EQ(es.FindInSlice(1, MakeStart(b)), 2u);
  EXPECT_EQ(es.FindInSlice(1, MakeStart(a)), EndpointSequence::kNotFoundItem);
}

TEST(EndpointDatabaseTest, BuildsAllSequences) {
  Dictionary seed_dict;
  IntervalDatabase db;
  testing::InternLetters(&db.dict(), 3);
  db.AddSequence(Seq(&db.dict(), {{'A', 0, 2}}));
  db.AddSequence(Seq(&db.dict(), {{'B', 1, 4}, {'C', 2, 3}}));
  EndpointDatabase edb = EndpointDatabase::FromDatabase(db);
  ASSERT_EQ(edb.size(), 2u);
  EXPECT_EQ(edb[0].num_items(), 2u);
  EXPECT_EQ(edb[1].num_items(), 4u);
  EXPECT_EQ(edb.num_symbols(), 3u);
  EXPECT_GT(edb.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace tpm
