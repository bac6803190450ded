#include "core/projection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <vector>

#include "core/validate.h"
#include "util/arena.h"
#include "util/memory.h"
#include "util/rng.h"

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
  // Finalize drops the staging stream, its state count included.
  EXPECT_EQ(b.num_spans(), 0u);
  EXPECT_EQ(b.num_staged_states(), 0u);
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

// ---- Finalize oracle -------------------------------------------------------
//
// The reference below is the two-copy Finalize this layer used before the
// single chunk walk: gather every staged state into contiguous arrays, run
// select over every span into one flat keep list, then copy the kept states
// out. Both must hand select the same spans and produce the same arrays.

struct PushedState {
  uint32_t seq = 0;
  StateRec rec;
  std::vector<uint32_t> aux;
};

// What select saw for one span, copied out of the SpanView.
struct SeenSpan {
  uint32_t seq = 0;
  uint32_t stride = 0;
  std::vector<StateRec> recs;
  std::vector<uint32_t> aux;

  bool operator==(const SeenSpan& o) const {
    return seq == o.seq && stride == o.stride && recs == o.recs &&
           aux == o.aux;
  }
};

struct FinalizedArrays {
  std::vector<SeqSpan> spans;
  std::vector<StateRec> states;
  std::vector<uint32_t> aux;
};

using SelectFn =
    std::function<void(const ProjectionBuilder::SpanView&, std::vector<uint32_t>*)>;

SeenSpan Copy(const ProjectionBuilder::SpanView& v) {
  SeenSpan s;
  s.seq = v.seq;
  s.stride = v.stride;
  s.recs.assign(v.recs, v.recs + v.count);
  s.aux.assign(v.aux, v.aux + size_t{v.count} * v.stride);
  return s;
}

FinalizedArrays ReferenceFinalize(const std::vector<PushedState>& pushes,
                                  uint32_t stride, const SelectFn& select,
                                  std::vector<SeenSpan>* seen) {
  // Copy 1: gather.
  std::vector<SeqSpan> spans;
  std::vector<StateRec> recs;
  std::vector<uint32_t> aux;
  for (const PushedState& p : pushes) {
    if (spans.empty() || spans.back().seq != p.seq) {
      spans.push_back(SeqSpan{p.seq, static_cast<uint32_t>(recs.size()), 0});
    }
    ++spans.back().count;
    recs.push_back(p.rec);
    aux.insert(aux.end(), p.aux.begin(), p.aux.end());
  }
  std::vector<uint32_t> keep_flat;
  std::vector<uint32_t> keep_offsets = {0};
  for (const SeqSpan& s : spans) {
    const ProjectionBuilder::SpanView v{s.seq, recs.data() + s.offset,
                                        aux.data() + size_t{s.offset} * stride,
                                        s.count, stride};
    seen->push_back(Copy(v));
    std::vector<uint32_t> keep;
    select(v, &keep);
    keep_flat.insert(keep_flat.end(), keep.begin(), keep.end());
    keep_offsets.push_back(static_cast<uint32_t>(keep_flat.size()));
  }
  // Copy 2: the kept states out.
  FinalizedArrays out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint32_t kb = keep_offsets[i];
    const uint32_t ke = keep_offsets[i + 1];
    if (kb == ke) continue;
    out.spans.push_back(SeqSpan{spans[i].seq,
                                static_cast<uint32_t>(out.states.size()),
                                ke - kb});
    for (uint32_t k = kb; k < ke; ++k) {
      const size_t idx = spans[i].offset + keep_flat[k];
      out.states.push_back(recs[idx]);
      out.aux.insert(out.aux.end(), aux.begin() + idx * stride,
                     aux.begin() + (idx + 1) * stride);
    }
  }
  return out;
}

FinalizedArrays ArraysOf(const NodeProjection& p) {
  FinalizedArrays out;
  out.spans.assign(p.spans, p.spans + p.num_spans);
  out.states.assign(p.states, p.states + p.num_states);
  out.aux.assign(p.aux, p.aux + p.num_states * p.stride);
  return out;
}

// Span sizes around the staging chunk capacities (8, 16, 32, then 64
// records), so spans start, end and straddle chunk boundaries.
constexpr uint32_t kSpanSizes[] = {1, 2, 8, 9, 64, 65, 200};

std::vector<PushedState> RandomPushStream(Rng* rng, uint32_t stride) {
  std::vector<PushedState> pushes;
  const uint32_t nspans = static_cast<uint32_t>(rng->UniformRange(1, 24));
  uint32_t seq = static_cast<uint32_t>(rng->Uniform(3));
  for (uint32_t s = 0; s < nspans; ++s) {
    // Half the spans hold one state, the engine's dominant case.
    const uint32_t count =
        rng->Bernoulli(0.5)
            ? 1
            : kSpanSizes[rng->Uniform(std::size(kSpanSizes))];
    for (uint32_t i = 0; i < count; ++i) {
      PushedState p;
      p.seq = seq;
      p.rec = StateRec{static_cast<uint32_t>(rng->Uniform(1000)),
                       static_cast<uint32_t>(rng->Uniform(50))};
      for (uint32_t k = 0; k < stride; ++k) {
        p.aux.push_back(static_cast<uint32_t>(rng->Next()));
      }
      pushes.push_back(std::move(p));
    }
    seq += 1 + static_cast<uint32_t>(rng->Uniform(4));
  }
  return pushes;
}

struct NamedSelect {
  const char* name;
  SelectFn fn;
};

std::vector<NamedSelect> OracleSelects() {
  return {
      {"keep-all",
       [](const ProjectionBuilder::SpanView& v, std::vector<uint32_t>* keep) {
         for (uint32_t i = 0; i < v.count; ++i) keep->push_back(i);
       }},
      {"drop-one-state-spans",
       [](const ProjectionBuilder::SpanView& v, std::vector<uint32_t>* keep) {
         if (v.count == 1) return;
         for (uint32_t i = 0; i < v.count; ++i) keep->push_back(i);
       }},
      // Keeps a data-dependent subset, in reverse order.
      {"reorder",
       [](const ProjectionBuilder::SpanView& v, std::vector<uint32_t>* keep) {
         for (uint32_t i = v.count; i > 0; --i) {
           if ((v.recs[i - 1].item + v.seq) % 3 != 0) keep->push_back(i - 1);
         }
       }},
      {"drop-all",
       [](const ProjectionBuilder::SpanView&, std::vector<uint32_t>*) {}},
  };
}

TEST_F(ProjectionTest, FinalizeMatchesTheTwoCopyReference) {
  Rng rng(20161);
  for (const uint32_t stride : {0u, 1u, 5u}) {
    for (const NamedSelect& sel : OracleSelects()) {
      for (int round = 0; round < 12; ++round) {
        SCOPED_TRACE(::testing::Message()
                     << "stride=" << stride << " select=" << sel.name
                     << " round=" << round);
        // Three buckets staged interleaved, the way a node's scan fills
        // them, so the context's scratch is reused bucket after bucket.
        constexpr int kBuckets = 3;
        std::vector<PushedState> streams[kBuckets];
        ProjectionBuilder builders[kBuckets];
        for (int b = 0; b < kBuckets; ++b) {
          streams[b] = RandomPushStream(&rng, stride);
          builders[b].Init(stride, &arenas_, /*depth=*/1);
        }
        size_t next[kBuckets] = {};
        for (bool pushed = true; pushed;) {
          pushed = false;
          for (int b = 0; b < kBuckets; ++b) {
            // A few pushes per bucket per turn, never splitting the push
            // order within a bucket.
            for (int k = 0; k < 3 && next[b] < streams[b].size(); ++k) {
              const PushedState& p = streams[b][next[b]++];
              uint32_t* aux = builders[b].Push(p.seq, p.rec.item, p.rec.anchor);
              std::copy(p.aux.begin(), p.aux.end(), aux);
              pushed = true;
            }
          }
        }
        const Arena::Mark mark = arenas_.depth(1).mark();
        for (int b = 0; b < kBuckets; ++b) {
          EXPECT_EQ(builders[b].num_staged_states(), streams[b].size());
          std::vector<SeenSpan> want_seen;
          const FinalizedArrays want =
              ReferenceFinalize(streams[b], stride, sel.fn, &want_seen);
          std::vector<SeenSpan> got_seen;
          const NodeProjection& view = builders[b].Finalize(
              [&](const ProjectionBuilder::SpanView& v,
                  std::vector<uint32_t>* keep) {
                got_seen.push_back(Copy(v));
                sel.fn(v, keep);
              });
          ASSERT_TRUE(ValidateProjection(view).ok());
          EXPECT_EQ(builders[b].num_staged_states(), 0u);
          EXPECT_TRUE(got_seen == want_seen);
          const FinalizedArrays got = ArraysOf(view);
          ASSERT_EQ(got.spans.size(), want.spans.size());
          for (size_t i = 0; i < got.spans.size(); ++i) {
            EXPECT_EQ(got.spans[i].seq, want.spans[i].seq) << i;
            EXPECT_EQ(got.spans[i].offset, want.spans[i].offset) << i;
            EXPECT_EQ(got.spans[i].count, want.spans[i].count) << i;
          }
          EXPECT_TRUE(got.states == want.states);
          EXPECT_TRUE(got.aux == want.aux);
        }
        arenas_.staging().Reset();
        arenas_.depth(1).Rewind(mark);
      }
    }
  }
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
