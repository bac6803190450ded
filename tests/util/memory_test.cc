#include "util/memory.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/timer.h"

namespace tpm {
namespace {

TEST(MemoryTrackerTest, TracksCurrentAndPeak) {
  MemoryTracker t;
  EXPECT_EQ(t.current_bytes(), 0u);
  t.Allocate(100);
  t.Allocate(50);
  EXPECT_EQ(t.current_bytes(), 150u);
  EXPECT_EQ(t.peak_bytes(), 150u);
  t.Release(120);
  EXPECT_EQ(t.current_bytes(), 30u);
  EXPECT_EQ(t.peak_bytes(), 150u);
  t.Allocate(10);
  EXPECT_EQ(t.peak_bytes(), 150u);  // peak unchanged
  t.Reset();
  EXPECT_EQ(t.current_bytes(), 0u);
  EXPECT_EQ(t.peak_bytes(), 0u);
}

TEST(MemoryTrackerTest, OverReleaseClampsToZero) {
  MemoryTracker t;
  t.Allocate(10);
  t.Release(100);
  EXPECT_EQ(t.current_bytes(), 0u);
}

TEST(MemoryTrackerTest, ConcurrentChargesSumExactly) {
  // One account shared by several threads (the parallel growth engine's
  // shape): every charge lands, and the peak is the true high-water mark.
  MemoryTracker t;
  t.Allocate(1000);
  constexpr int kThreads = 4;
  constexpr int kCharges = 5000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t] {
      for (int j = 0; j < kCharges; ++j) {
        t.Allocate(8);
        t.Release(8);
      }
      t.Allocate(16);
    });
  }
  for (std::thread& th : threads) th.join();
  // A thread holds at most 8 bytes in its loop and 16 after it, so the
  // final value is also the peak.
  EXPECT_EQ(t.current_bytes(), 1000u + kThreads * 16);
  EXPECT_EQ(t.peak_bytes(), 1000u + kThreads * 16);
}

TEST(RssTest, ProcReadsArePlausible) {
  const uint64_t rss = ReadCurrentRssBytes();
  const uint64_t peak = ReadPeakRssBytes();
  EXPECT_GT(rss, 1u << 20);   // a test binary is at least 1 MiB resident
  EXPECT_GE(peak, rss / 2);   // peak should be in the same ballpark or above
}

TEST(RssTest, PeakGrowsAfterAllocation) {
  const uint64_t before = ReadPeakRssBytes();
  // Touch 32 MiB so it becomes resident.
  std::vector<char> block(32u << 20);
  for (size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
  const uint64_t after = ReadPeakRssBytes();
  EXPECT_GE(after, before);
  EXPECT_GE(after, before + (16u << 20));
}

TEST(TimerTest, WallTimerAdvances) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 1000000; ++i) sink = sink + i;
  EXPECT_GT(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds() * 1000 * 0.99);
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

TEST(TimerTest, CpuTimerAdvancesUnderWork) {
  CpuTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 5000000; ++i) sink = sink + i * 0.5;
  EXPECT_GT(t.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace tpm
