#include "util/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/memory.h"

namespace tpm {
namespace {

TEST(ArenaTest, ChargesTrackerExactlyPerBlock) {
  MemoryTracker tracker;
  {
    Arena arena(&tracker, /*min_block_bytes=*/1024);
    EXPECT_EQ(tracker.current_bytes(), 0u);
    arena.Allocate(100);
    EXPECT_EQ(arena.allocated_bytes(), 1024u);
    EXPECT_EQ(tracker.current_bytes(), 1024u);
    // Fits in the first block: no new charge.
    arena.Allocate(100);
    EXPECT_EQ(tracker.current_bytes(), 1024u);
    // Overflows into a second block.
    arena.Allocate(1024);
    EXPECT_EQ(arena.num_blocks(), 2u);
    EXPECT_EQ(tracker.current_bytes(), arena.allocated_bytes());
  }
  // Destructor releases everything.
  EXPECT_EQ(tracker.current_bytes(), 0u);
}

TEST(ArenaTest, OversizedRequestGetsDedicatedBlock) {
  Arena arena(nullptr, 256);
  void* p = arena.Allocate(10000);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, 10000);
  EXPECT_GE(arena.allocated_bytes(), 10000u);
  EXPECT_EQ(arena.used_bytes(), 10000u);
}

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(nullptr, 128);
  std::vector<uint64_t*> ptrs;
  for (int i = 0; i < 100; ++i) {
    auto* p = arena.AllocateArray<uint64_t>(3);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(uint64_t), 0u);
    for (int j = 0; j < 3; ++j) p[j] = static_cast<uint64_t>(i * 3 + j);
    ptrs.push_back(p);
  }
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(ptrs[i][j], static_cast<uint64_t>(i * 3 + j));
    }
  }
}

TEST(ArenaTest, ZeroByteAllocationIsValidAndFree) {
  Arena arena;
  EXPECT_NE(arena.Allocate(0), nullptr);
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_EQ(arena.allocated_bytes(), 0u);
}

TEST(ArenaTest, MarkRewindReusesBlocksWithoutNewCharges) {
  MemoryTracker tracker;
  Arena arena(&tracker, 1024);
  arena.Allocate(512);
  const Arena::Mark m = arena.mark();
  for (int i = 0; i < 64; ++i) arena.Allocate(256);
  const size_t allocated_before = arena.allocated_bytes();
  const size_t used_before = arena.used_bytes();
  arena.Rewind(m);
  EXPECT_EQ(arena.used_bytes(), 512u);
  // Blocks are retained: tracker charge unchanged...
  EXPECT_EQ(arena.allocated_bytes(), allocated_before);
  EXPECT_EQ(tracker.current_bytes(), allocated_before);
  // ...and the same workload replayed needs no new blocks.
  for (int i = 0; i < 64; ++i) arena.Allocate(256);
  EXPECT_EQ(arena.allocated_bytes(), allocated_before);
  EXPECT_EQ(arena.used_bytes(), used_before);
  // High-water is monotone across rewinds.
  EXPECT_EQ(arena.used_high_water(), used_before);
}

TEST(ArenaTest, ResetRewindsToEmpty) {
  Arena arena(nullptr, 256);
  arena.Allocate(1000);
  arena.Reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  void* p = arena.Allocate(16);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.used_bytes(), 16u);
}

TEST(ArenaVectorTest, PushBackPreservesContentAcrossGrowth) {
  Arena arena(nullptr, 256);
  ArenaVector<uint32_t> v(&arena);
  for (uint32_t i = 0; i < 1000; ++i) v.push_back(i * 7);
  ASSERT_EQ(v.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i * 7);
}

TEST(ArenaVectorTest, ExtendReturnsWritableSlice) {
  Arena arena;
  ArenaVector<uint32_t> v(&arena);
  v.push_back(1);
  uint32_t* slice = v.extend(3);
  slice[0] = 2;
  slice[1] = 3;
  slice[2] = 4;
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 1u);
  EXPECT_EQ(v[3], 4u);
}

TEST(ArenaTest, TryExtendGrowsOnlyTheLastAllocation) {
  Arena arena(nullptr, 256);
  void* a = arena.Allocate(32);
  EXPECT_TRUE(arena.TryExtend(a, 32, 64));
  EXPECT_EQ(arena.used_bytes(), 64u);
  void* b = arena.Allocate(16);
  EXPECT_FALSE(arena.TryExtend(a, 64, 128));  // no longer the last allocation
  EXPECT_TRUE(arena.TryExtend(b, 16, 32));
  EXPECT_FALSE(arena.TryExtend(b, 32, 4096));  // exceeds the active block
  EXPECT_EQ(arena.used_bytes(), 64u + 32u);
}

TEST(ArenaTest, TryShrinkGivesBackTheLastAllocationsTail) {
  Arena arena(nullptr, 256);
  void* a = arena.Allocate(64);
  EXPECT_TRUE(arena.TryShrink(a, 64, 32));
  EXPECT_EQ(arena.used_bytes(), 32u);
  EXPECT_EQ(arena.used_high_water(), 64u);
  // The given-back tail is the next allocation's.
  void* b = arena.Allocate(16);
  EXPECT_EQ(static_cast<char*>(b), static_cast<char*>(a) + 32);
  EXPECT_TRUE(arena.TryShrink(b, 16, 0));
  EXPECT_EQ(arena.used_bytes(), 32u);
  EXPECT_FALSE(arena.TryShrink(a, 32, 48));  // growing is TryExtend's job
  EXPECT_EQ(arena.used_bytes(), 32u);
}

TEST(ArenaTest, TryShrinkIgnoresAllButTheLastAllocation) {
  Arena arena(nullptr, 256);
  void* a = arena.Allocate(32);
  void* b = arena.Allocate(32);
  EXPECT_FALSE(arena.TryShrink(a, 32, 8));  // no longer the last allocation
  EXPECT_FALSE(arena.TryShrink(b, 16, 8));  // wrong size: not at the bump
  EXPECT_FALSE(arena.TryShrink(nullptr, 0, 0));
  EXPECT_EQ(arena.used_bytes(), 64u);
  void* c = arena.Allocate(8);
  EXPECT_EQ(static_cast<char*>(c), static_cast<char*>(b) + 32);
}

TEST(ArenaVectorTest, SoleVectorGrowsInPlaceWithoutAbandonedSpans) {
  Arena arena(nullptr, 1 << 12);
  ArenaVector<uint32_t> v(&arena);
  for (uint32_t i = 0; i < 512; ++i) v.push_back(i);
  // In-place extension: the arena holds exactly the vector's capacity, not
  // a chain of abandoned doubling spans.
  EXPECT_EQ(arena.used_bytes(), 512 * sizeof(uint32_t));
  for (uint32_t i = 0; i < 512; ++i) EXPECT_EQ(v[i], i);
}

TEST(ArenaVectorTest, StructRecordsRoundTrip) {
  struct Rec {
    uint32_t a;
    uint32_t b;
  };
  Arena arena;
  ArenaVector<Rec> v(&arena);
  for (uint32_t i = 0; i < 100; ++i) v.push_back(Rec{i, i + 1});
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(v[i].a, i);
    EXPECT_EQ(v[i].b, i + 1);
  }
}

}  // namespace
}  // namespace tpm
