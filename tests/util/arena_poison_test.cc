// Tier D arena-lifetime enforcement tests (docs/STATIC_ANALYSIS.md).
//
// Three layers, each exercised where it is live:
//  * positive paths — mark/rewind/reallocate is clean in every build,
//    including under ASan (reused ranges are unpoisoned on allocation);
//  * ASan poisoning — reads and writes through pointers into rewound
//    ranges die with a use-after-poison report (TPM_ASAN_ENABLED builds);
//  * generation stamping — a NodeProjection that outlives its depth
//    arena's rewind fails ValidateProjection in every build and aborts via
//    TPM_DCHECK in debug builds, with no sanitizer needed.

#include "util/arena.h"

#include <cstring>

#include <gtest/gtest.h>

#include "core/projection.h"
#include "core/validate.h"
#include "miner/growth_engine.h"

namespace tpm {
namespace {

// Reads escape through a volatile so the poisoned load cannot be elided.
volatile uint32_t g_sink_word;

// Builds one finalized projection at `depth` with a few states.
const NodeProjection& BuildProjection(ProjectionArenas* arenas,
                                      ProjectionBuilder* builder,
                                      uint32_t depth) {
  builder->Init(/*stride=*/1, arenas, depth);
  for (uint32_t seq = 0; seq < 4; ++seq) {
    uint32_t* aux = builder->Push(seq, /*item=*/seq * 2, /*anchor=*/seq);
    aux[0] = 100 + seq;
  }
  return builder->FinalizeKeepAll();
}

TEST(ArenaPoisonTest, MarkRewindReallocateStaysClean) {
  Arena arena(nullptr, /*min_block_bytes=*/256);
  const Arena::Mark m = arena.mark();
  for (int round = 0; round < 8; ++round) {
    uint32_t* a = arena.AllocateArray<uint32_t>(64);
    for (int i = 0; i < 64; ++i) a[i] = static_cast<uint32_t>(round + i);
    for (int i = 0; i < 64; ++i) g_sink_word = a[i];
    arena.Rewind(m);
  }
  // Rewound-to-empty arena serves fresh allocations cleanly too.
  arena.Reset();
  char* p = static_cast<char*>(arena.Allocate(128));
  std::memset(p, 0x5a, 128);
  g_sink_word = static_cast<uint32_t>(static_cast<unsigned char>(p[127]));
}

TEST(ArenaPoisonTest, AllocationsBeforeMarkSurviveRewind) {
  Arena arena(nullptr, /*min_block_bytes=*/256);
  uint32_t* keep = arena.AllocateArray<uint32_t>(32);
  keep[31] = 0xabcd;
  const Arena::Mark m = arena.mark();
  (void)arena.AllocateArray<uint32_t>(512);  // spills into further blocks
  arena.Rewind(m);
  // The pre-mark allocation is still live and readable.
  EXPECT_EQ(keep[31], 0xabcdu);
}

TEST(ArenaPoisonTest, TryExtendKeepsExtensionReadable) {
  Arena arena(nullptr, /*min_block_bytes=*/1024);
  uint32_t* p = arena.AllocateArray<uint32_t>(8);
  ASSERT_TRUE(arena.TryExtend(p, 8 * sizeof(uint32_t), 16 * sizeof(uint32_t)));
  for (int i = 0; i < 16; ++i) p[i] = static_cast<uint32_t>(i);
  for (int i = 0; i < 16; ++i) g_sink_word = p[i];
}

TEST(ArenaPoisonTest, TryShrinkKeepsTheHeadReadable) {
  Arena arena(nullptr, /*min_block_bytes=*/1024);
  uint32_t* p = arena.AllocateArray<uint32_t>(16);
  for (int i = 0; i < 16; ++i) p[i] = static_cast<uint32_t>(i);
  ASSERT_TRUE(arena.TryShrink(p, 16 * sizeof(uint32_t), 4 * sizeof(uint32_t)));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(p[i], static_cast<uint32_t>(i));
}

TEST(ArenaPoisonTest, GenerationAdvancesOnRewindAndReset) {
  Arena arena;
  EXPECT_EQ(arena.generation(), 0u);
  const Arena::Mark m = arena.mark();
  (void)arena.Allocate(16);
  arena.Rewind(m);
  EXPECT_EQ(arena.generation(), 1u);
  arena.Reset();
  EXPECT_EQ(arena.generation(), 2u);
  (void)arena.Allocate(16);  // allocation never bumps the generation
  EXPECT_EQ(arena.generation(), 2u);
}

// Stages two buckets the way a node's scan does — one-state and multi-state
// spans, stride 2 — and finalizes the first. Expected words are functions of
// (seq, state) so a read through a stale alias shows as a wrong value in
// every build and as a poisoned read under ASan.
uint32_t ExpectedAux(uint32_t seq, uint32_t i, uint32_t k) {
  return 1000 * seq + 10 * i + k;
}

void StageMixedSpans(ProjectionBuilder* builder, uint32_t base_seq) {
  for (uint32_t seq = base_seq; seq < base_seq + 12; ++seq) {
    const uint32_t count = seq % 3 == 0 ? 5 : 1;  // every third span multi
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t* aux = builder->Push(seq, /*item=*/seq * 7 + i, /*anchor=*/i);
      aux[0] = ExpectedAux(seq, i, 0);
      aux[1] = ExpectedAux(seq, i, 1);
    }
  }
}

void ReadAllWords(const NodeProjection& view, uint32_t base_seq) {
  size_t state = 0;
  ASSERT_EQ(view.num_spans, 12u);
  for (uint32_t s = 0; s < view.num_spans; ++s) {
    const SeqSpan& sp = view.spans[s];
    EXPECT_EQ(sp.seq, base_seq + s);
    for (uint32_t i = 0; i < sp.count; ++i, ++state) {
      g_sink_word = view.states[state].item;
      g_sink_word = view.states[state].anchor;
      EXPECT_EQ(view.states[state].item, sp.seq * 7 + i);
      EXPECT_EQ(view.states[state].anchor, i);
      for (uint32_t k = 0; k < view.stride; ++k) {
        g_sink_word = view.aux[state * view.stride + k];
        EXPECT_EQ(view.aux[state * view.stride + k], ExpectedAux(sp.seq, i, k));
      }
    }
  }
  EXPECT_EQ(state, view.num_states);
}

// A finalized view points only into its depth arena: neither the staging
// chunks (reset after every node, poisoned under ASan) nor the context's
// Finalize scratch (reused by the next bucket) may back any word of it.
TEST(ProjectionNoAliasTest, FinalizedViewOutlivesStagingAndScratchReuse) {
  ProjectionArenas arenas(nullptr);
  ProjectionBuilder first;
  ProjectionBuilder second;
  first.Init(/*stride=*/2, &arenas, /*depth=*/1);
  second.Init(/*stride=*/2, &arenas, /*depth=*/1);
  StageMixedSpans(&first, /*base_seq=*/0);
  StageMixedSpans(&second, /*base_seq=*/100);
  const NodeProjection view = first.FinalizeKeepAll();
  ReadAllWords(view, 0);

  // The second bucket's Finalize rewrites the shared scratch.
  const NodeProjection other = second.FinalizeKeepAll();
  ReadAllWords(view, 0);

  // What the engine does once every bucket of the node finalized.
  arenas.staging().Reset();
  ReadAllWords(view, 0);
  ReadAllWords(other, 100);
  EXPECT_TRUE(ValidateProjection(view).ok());
}

TEST(ProjectionGenerationTest, FreshViewIsAliveAndValid) {
  ProjectionArenas arenas(nullptr);
  ProjectionBuilder builder;
  const NodeProjection& view = BuildProjection(&arenas, &builder, /*depth=*/1);
  EXPECT_TRUE(view.alive());
  EXPECT_EQ(view.arena, &arenas.depth(1));
  EXPECT_TRUE(ValidateProjection(view).ok());
}

TEST(ProjectionGenerationTest, StaleViewFailsValidateInEveryBuild) {
  ProjectionArenas arenas(nullptr);
  ProjectionBuilder builder;
  Arena& depth1 = arenas.depth(1);
  const Arena::Mark m = depth1.mark();
  const NodeProjection view = BuildProjection(&arenas, &builder, /*depth=*/1);
  EXPECT_TRUE(ValidateProjection(view).ok());
  depth1.Rewind(m);
  EXPECT_FALSE(view.alive());
  const Status s = ValidateProjection(view);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("rewound since finalize"), std::string::npos);
}

#if TPM_ASAN_ENABLED

TEST(ArenaPoisonDeathTest, RawReadAfterRewindDies) {
  EXPECT_DEATH(
      {
        Arena arena(nullptr, /*min_block_bytes=*/256);
        const Arena::Mark m = arena.mark();
        uint32_t* p = arena.AllocateArray<uint32_t>(16);
        p[0] = 42;
        arena.Rewind(m);
        // Read a word the store above did not touch: GCC drops the check on
        // a load from an address a preceding store already checked.
        g_sink_word = p[1];  // storage reclaimed: poisoned
      },
      "use-after-poison");
}

TEST(ArenaPoisonDeathTest, RawWriteAfterResetDies) {
  EXPECT_DEATH(
      {
        Arena arena(nullptr, /*min_block_bytes=*/256);
        uint32_t* p = arena.AllocateArray<uint32_t>(16);
        arena.Reset();
        p[7] = 1;  // storage reclaimed: poisoned
      },
      "use-after-poison");
}

TEST(ArenaPoisonDeathTest, StaleProjectionStateReadDies) {
  EXPECT_DEATH(
      {
        ProjectionArenas arenas(nullptr);
        ProjectionBuilder builder;
        Arena& depth1 = arenas.depth(1);
        const Arena::Mark m = depth1.mark();
        const NodeProjection view =
            BuildProjection(&arenas, &builder, /*depth=*/1);
        depth1.Rewind(m);  // what the engine does when the subtree exits
        g_sink_word = view.states[0].item;
      },
      "use-after-poison");
}

TEST(ArenaPoisonDeathTest, StagingReadAfterNodeResetDies) {
  // The ASan half of ProjectionNoAliasTest: a view that pointed a one-state
  // span at its staged record would read exactly this poisoned range.
  EXPECT_DEATH(
      {
        ProjectionArenas arenas(nullptr);
        ProjectionBuilder builder;
        builder.Init(/*stride=*/2, &arenas, /*depth=*/1);
        const uint32_t* staged = builder.Push(/*seq=*/3, 7, 0);
        (void)builder.FinalizeKeepAll();
        arenas.staging().Reset();
        g_sink_word = staged[1];
      },
      "use-after-poison");
}

TEST(ArenaPoisonDeathTest, TryShrinkPoisonsTheReturnedTail) {
  EXPECT_DEATH(
      {
        Arena arena(nullptr, /*min_block_bytes=*/256);
        uint32_t* p = arena.AllocateArray<uint32_t>(16);
        (void)arena.TryShrink(p, 16 * sizeof(uint32_t), 4 * sizeof(uint32_t));
        g_sink_word = p[9];  // given back: poisoned
      },
      "use-after-poison");
}

// The growth engine's span lists: a node marks its worker's list arena,
// allocates each list at its upper bound and gives back the unused tail,
// and its children build their lists above from the parent's. Once the
// node's ReleaseNode rewinds the arena, a parent list read dies.
TEST(ArenaPoisonDeathTest, ParentListReadAfterReleaseNodeDies) {
  EXPECT_DEATH(
      {
        Arena lists(nullptr, /*min_block_bytes=*/256);
        const Arena::Mark node = lists.mark();
        ScanItem* parent = lists.AllocateArray<ScanItem>(8);
        for (uint32_t i = 0; i < 5; ++i) {
          parent[i].pos = i;
          parent[i].code = 2 * i;
        }
        (void)lists.TryShrink(parent, 8 * sizeof(ScanItem),
                              5 * sizeof(ScanItem));
        ScanItem* child = lists.AllocateArray<ScanItem>(3);
        for (uint32_t i = 0; i < 3; ++i) child[i] = parent[2 + i];
        g_sink_word = child[2].code;
        lists.Rewind(node);  // ReleaseNode
        g_sink_word = parent[1].pos;
      },
      "use-after-poison");
}

TEST(ArenaPoisonDeathTest, NeverAllocatedBlockTailStaysPoisoned) {
  EXPECT_DEATH(
      {
        Arena arena(nullptr, /*min_block_bytes=*/256);
        char* p = static_cast<char*>(arena.Allocate(8));
        g_sink_word = static_cast<uint32_t>(
            static_cast<unsigned char>(p[64]));  // past the allocation
      },
      "use-after-poison");
}

#endif  // TPM_ASAN_ENABLED

#if TPM_VALIDATORS_ENABLED

TEST(ProjectionGenerationDeathTest, CheckAliveAbortsOnStaleView) {
  EXPECT_DEATH(
      {
        ProjectionArenas arenas(nullptr);
        ProjectionBuilder builder;
        Arena& depth1 = arenas.depth(1);
        const Arena::Mark m = depth1.mark();
        const NodeProjection view =
            BuildProjection(&arenas, &builder, /*depth=*/1);
        depth1.Rewind(m);
        view.CheckAlive();
      },
      "TPM_DCHECK failed");
}

TEST(ProjectionGenerationDeathTest, AuxAccessAbortsOnStaleView) {
  EXPECT_DEATH(
      {
        ProjectionArenas arenas(nullptr);
        ProjectionBuilder builder;
        Arena& depth1 = arenas.depth(1);
        const Arena::Mark m = depth1.mark();
        const NodeProjection view =
            BuildProjection(&arenas, &builder, /*depth=*/1);
        depth1.Rewind(m);
        g_sink_word = view.aux_of(0)[0];
      },
      "TPM_DCHECK failed");
}

#endif  // TPM_VALIDATORS_ENABLED

}  // namespace
}  // namespace tpm
