#include "util/guard.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "util/memory.h"

namespace tpm {
namespace {

TEST(StopReasonTest, Names) {
  EXPECT_STREQ(StopReasonName(StopReason::kNone), "none");
  EXPECT_STREQ(StopReasonName(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(StopReasonName(StopReason::kMemory), "memory");
  EXPECT_STREQ(StopReasonName(StopReason::kCancelled), "cancelled");
  EXPECT_STREQ(StopReasonName(StopReason::kPatternCap), "pattern-cap");
}

TEST(CancellationTokenTest, CancelAndReset) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
  token.Reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(ExecutionGuardTest, UnlimitedGuardNeverStops) {
  ExecutionGuard guard;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(guard.ShouldStop());
  }
  EXPECT_FALSE(guard.stopped());
  EXPECT_EQ(guard.reason(), StopReason::kNone);
}

TEST(ExecutionGuardTest, DeadlineTrips) {
  GuardLimits limits;
  limits.time_budget_seconds = 0.01;
  ExecutionGuard guard(limits, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // The clock is only read every kTimeCheckInterval calls, so spin a bit.
  bool stopped = false;
  for (uint32_t i = 0; i <= ExecutionGuard::kTimeCheckInterval && !stopped; ++i) {
    stopped = guard.ShouldStop();
  }
  EXPECT_TRUE(stopped);
  EXPECT_EQ(guard.reason(), StopReason::kDeadline);
}

TEST(ExecutionGuardTest, TimeChecksAreAmortized) {
  GuardLimits limits;
  limits.time_budget_seconds = 3600.0;  // never trips
  ExecutionGuard guard(limits, nullptr);
  const int kCalls = 10 * ExecutionGuard::kTimeCheckInterval;
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_FALSE(guard.ShouldStop());
  }
  // One clock read per kTimeCheckInterval calls (+1 for the initial call).
  EXPECT_LE(guard.timed_checks(), 11u);
  EXPECT_GE(guard.timed_checks(), 10u);
}

TEST(ExecutionGuardTest, LogicalMemoryBudgetTrips) {
  MemoryTracker tracker;
  GuardLimits limits;
  limits.memory_budget_bytes = 1000;
  ExecutionGuard guard(limits, &tracker);
  tracker.Allocate(500);
  EXPECT_FALSE(guard.ShouldStop());
  tracker.Allocate(600);
  EXPECT_TRUE(guard.ShouldStop());
  EXPECT_EQ(guard.reason(), StopReason::kMemory);
  // Sticky even after the allocation is released.
  tracker.Release(1100);
  EXPECT_TRUE(guard.ShouldStop());
}

TEST(ExecutionGuardTest, RssBackstopScalesSaturatesAndFloors) {
  constexpr uint64_t kFloor = ExecutionGuard::kRssBackstopFloorBytes;
  EXPECT_EQ(ExecutionGuard::RssBackstopBytes(1000), kFloor);
  EXPECT_EQ(ExecutionGuard::RssBackstopBytes(kFloor), 4 * kFloor);
  // 4 x 2^62 would wrap to 0 and fall back to the 64 MiB floor.
  EXPECT_EQ(ExecutionGuard::RssBackstopBytes(uint64_t{1} << 62), UINT64_MAX);
  EXPECT_EQ(ExecutionGuard::RssBackstopBytes(UINT64_MAX), UINT64_MAX);
}

TEST(ExecutionGuardTest, CancellationTrips) {
  CancellationToken token;
  GuardLimits limits;
  limits.cancellation = &token;
  ExecutionGuard guard(limits, nullptr);
  EXPECT_FALSE(guard.ShouldStop());
  token.Cancel();
  EXPECT_TRUE(guard.ShouldStop());
  EXPECT_EQ(guard.reason(), StopReason::kCancelled);
}

TEST(ExecutionGuardTest, PatternCapTrips) {
  GuardLimits limits;
  limits.max_patterns = 3;
  ExecutionGuard guard(limits, nullptr);
  EXPECT_FALSE(guard.NotePattern(1));
  EXPECT_FALSE(guard.NotePattern(2));
  EXPECT_TRUE(guard.NotePattern(3));
  EXPECT_TRUE(guard.stopped());
  EXPECT_EQ(guard.reason(), StopReason::kPatternCap);
  EXPECT_TRUE(guard.ShouldStop());
}

TEST(ExecutionGuardTest, FirstReasonWins) {
  CancellationToken token;
  GuardLimits limits;
  limits.cancellation = &token;
  limits.max_patterns = 1;
  ExecutionGuard guard(limits, nullptr);
  EXPECT_TRUE(guard.NotePattern(1));
  token.Cancel();
  EXPECT_TRUE(guard.ShouldStop());
  EXPECT_EQ(guard.reason(), StopReason::kPatternCap);
}

TEST(ExecutionGuardTest, TripExternally) {
  ExecutionGuard guard;
  guard.Trip(StopReason::kDeadline);
  EXPECT_TRUE(guard.stopped());
  EXPECT_EQ(guard.reason(), StopReason::kDeadline);
  guard.Trip(StopReason::kMemory);  // first reason wins
  EXPECT_EQ(guard.reason(), StopReason::kDeadline);
}

TEST(ExecutionGuardTest, OnStopFiresExactlyOnceAtFirstTransition) {
  int calls = 0;
  StopReason seen = StopReason::kNone;
  GuardLimits limits;
  limits.max_patterns = 2;
  limits.on_stop = [&calls, &seen](StopReason reason) {
    ++calls;
    seen = reason;
  };
  ExecutionGuard guard(limits, nullptr);
  EXPECT_FALSE(guard.NotePattern(1));
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(guard.NotePattern(2));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, StopReason::kPatternCap);
  // Re-checking a stopped guard or tripping again must not re-fire.
  EXPECT_TRUE(guard.ShouldStop());
  EXPECT_TRUE(guard.NotePattern(3));
  guard.Trip(StopReason::kMemory);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(guard.reason(), StopReason::kPatternCap);
}

TEST(ExecutionGuardTest, OnStopFiresForExternalTrip) {
  int calls = 0;
  GuardLimits limits;
  limits.on_stop = [&calls](StopReason) { ++calls; };
  ExecutionGuard guard(limits, nullptr);
  guard.Trip(StopReason::kCancelled);
  guard.Trip(StopReason::kDeadline);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace tpm
