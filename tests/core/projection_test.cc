#include "core/projection.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/validate.h"
#include "util/arena.h"
#include "util/memory.h"

namespace tpm {
namespace {

class ProjectionTest : public ::testing::Test {
 protected:
  MemoryTracker tracker_;
  ProjectionArenas arenas_{&tracker_};
};

TEST_F(ProjectionTest, PushGroupsBySequenceAndCountsSupport) {
  ProjectionBuilder b;
  b.Init(/*stride=*/2, &arenas_, /*depth=*/1);
  uint32_t* aux = b.Push(0, 10, 0);
  aux[0] = 1;
  aux[1] = 2;
  aux = b.Push(0, 11, 0);
  aux[0] = 3;
  aux[1] = 4;
  aux = b.Push(5, 12, 1);
  aux[0] = 5;
  aux[1] = 6;
  EXPECT_EQ(b.num_spans(), 2u);
  EXPECT_EQ(b.num_staged_states(), 3u);

  const NodeProjection& p = b.FinalizeKeepAll();
  ASSERT_EQ(p.num_spans, 2u);
  ASSERT_EQ(p.num_states, 3u);
  EXPECT_EQ(p.stride, 2u);
  EXPECT_EQ(p.spans[0].seq, 0u);
  EXPECT_EQ(p.spans[0].offset, 0u);
  EXPECT_EQ(p.spans[0].count, 2u);
  EXPECT_EQ(p.spans[1].seq, 5u);
  EXPECT_EQ(p.spans[1].offset, 2u);
  EXPECT_EQ(p.spans[1].count, 1u);
  EXPECT_EQ(p.states[0].item, 10u);
  EXPECT_EQ(p.states[1].item, 11u);
  EXPECT_EQ(p.states[2].item, 12u);
  EXPECT_EQ(p.states[2].anchor, 1u);
  EXPECT_EQ(p.aux_of(0)[0], 1u);
  EXPECT_EQ(p.aux_of(1)[1], 4u);
  EXPECT_EQ(p.aux_of(2)[0], 5u);
  EXPECT_TRUE(ValidateProjection(p).ok());
}

TEST_F(ProjectionTest, FinalizeSelectionFiltersAndReorders) {
  ProjectionBuilder b;
  b.Init(/*stride=*/1, &arenas_, 1);
  for (uint32_t seq = 0; seq < 3; ++seq) {
    for (uint32_t i = 0; i < 4; ++i) {
      *b.Push(seq, seq * 10 + i, 0) = i;
    }
  }
  // Keep the even-index states of seqs 0 and 2, reversed; drop seq 1.
  const NodeProjection& p = b.Finalize(
      [](const ProjectionBuilder::SpanView& v, std::vector<uint32_t>* keep) {
        if (v.seq == 1) return;
        keep->push_back(2);
        keep->push_back(0);
      });
  ASSERT_EQ(p.num_spans, 2u);
  ASSERT_EQ(p.num_states, 4u);
  EXPECT_EQ(p.spans[0].seq, 0u);
  EXPECT_EQ(p.spans[1].seq, 2u);
  EXPECT_EQ(p.states[0].item, 2u);   // seq 0, local idx 2
  EXPECT_EQ(p.states[1].item, 0u);   // seq 0, local idx 0
  EXPECT_EQ(p.states[2].item, 22u);  // seq 2, local idx 2
  EXPECT_EQ(p.aux_of(0)[0], 2u);
  EXPECT_EQ(p.aux_of(1)[0], 0u);
  EXPECT_TRUE(ValidateProjection(p).ok());
}

TEST_F(ProjectionTest, StrideZeroNodesCarryNoAux) {
  ProjectionBuilder b;
  b.Init(/*stride=*/0, &arenas_, 0);
  b.Push(3, 7, kNoStateItem);
  b.Push(8, 9, kNoStateItem);
  const NodeProjection& p = b.FinalizeKeepAll();
  ASSERT_EQ(p.num_states, 2u);
  EXPECT_EQ(p.stride, 0u);
  EXPECT_EQ(p.states[1].item, 9u);
  EXPECT_TRUE(ValidateProjection(p).ok());
}

TEST_F(ProjectionTest, EmptySelectionYieldsEmptyProjection) {
  ProjectionBuilder b;
  b.Init(1, &arenas_, 2);
  *b.Push(0, 1, 0) = 0;
  const NodeProjection& p = b.Finalize(
      [](const ProjectionBuilder::SpanView&, std::vector<uint32_t>*) {});
  EXPECT_EQ(p.num_spans, 0u);
  EXPECT_EQ(p.num_states, 0u);
  EXPECT_TRUE(ValidateProjection(p).ok());
}

TEST(ProjectionArenasTest, BytesAreTrackedExactly) {
  MemoryTracker tracker;
  ProjectionArenas arenas(&tracker);
  ProjectionBuilder b;
  b.Init(4, &arenas, 3);
  for (uint32_t seq = 0; seq < 100; ++seq) {
    for (uint32_t i = 0; i < 20; ++i) {
      uint32_t* aux = b.Push(seq, i, 0);
      for (uint32_t k = 0; k < 4; ++k) aux[k] = k;
    }
  }
  b.FinalizeKeepAll();
  // Every mapped arena block is charged to the tracker, nothing else.
  EXPECT_EQ(tracker.current_bytes(), arenas.total_allocated_bytes());
  EXPECT_GT(arenas.total_blocks(), 0u);
  // Releasing the depth data is an O(1) rewind that keeps charges monotone.
  const size_t charged = tracker.current_bytes();
  arenas.depth(3).Reset();
  arenas.staging().Reset();
  EXPECT_EQ(tracker.current_bytes(), charged);
}

TEST(ValidateProjectionTest, RejectsMalformedSpans) {
  StateRec recs[3] = {{1, 0}, {2, 0}, {3, 0}};
  uint32_t aux[3] = {0, 0, 0};
  Arena arena(nullptr);
  const uint64_t gen = arena.generation();

  // Out-of-order sequences.
  SeqSpan bad_order[2] = {{5, 0, 1}, {2, 1, 2}};
  NodeProjection p{bad_order, 2, recs, aux, 1, 3, &arena, gen};
  EXPECT_FALSE(ValidateProjection(p).ok());

  // Empty span.
  SeqSpan empty_span[2] = {{0, 0, 0}, {1, 0, 3}};
  p = NodeProjection{empty_span, 2, recs, aux, 1, 3, &arena, gen};
  EXPECT_FALSE(ValidateProjection(p).ok());

  // Offset gap.
  SeqSpan gap[2] = {{0, 0, 1}, {1, 2, 1}};
  p = NodeProjection{gap, 2, recs, aux, 1, 3, &arena, gen};
  EXPECT_FALSE(ValidateProjection(p).ok());

  // Count mismatch with num_states.
  SeqSpan short_spans[1] = {{0, 0, 2}};
  p = NodeProjection{short_spans, 1, recs, aux, 1, 3, &arena, gen};
  EXPECT_FALSE(ValidateProjection(p).ok());

  // Well-formed passes.
  SeqSpan good[2] = {{0, 0, 1}, {4, 1, 2}};
  p = NodeProjection{good, 2, recs, aux, 1, 3, &arena, gen};
  EXPECT_TRUE(ValidateProjection(p).ok());
}

}  // namespace
}  // namespace tpm
