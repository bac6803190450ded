// Unit tests for the work-unit scheduler layer (miner/scheduler.h).
//
// The scheduler is pure bookkeeping — no miner, no projections — so these
// tests pin down the exact contracts the growth engine builds on: FIFO
// dispatch in unit-id order, sub-units outranking whole units, TryNextSub
// never claiming a whole unit, and the thread-count-independent split
// heuristic. A concurrency smoke at the end hammers the queue from several
// threads and checks every item is claimed exactly once (meaningful under
// TSan, cheap everywhere else).

#include "miner/scheduler.h"

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace tpm {
namespace {

// Unit ids 0..n-1, the engine's bucket order.
std::vector<uint64_t> UnitIds(uint64_t n) {
  std::vector<uint64_t> ids;
  for (uint64_t id = 0; id < n; ++id) ids.push_back(id);
  return ids;
}

TEST(WorkSchedulerTest, DispatchesUnitsInIdOrder) {
  WorkScheduler sched;
  // The engine queues only the units left to mine, so ids may skip.
  sched.Reset({0, 2, 3, 7});
  EXPECT_EQ(sched.units_pending(), 4u);

  for (uint64_t want : {0, 2, 3, 7}) {
    WorkItem item;
    ASSERT_TRUE(sched.TryNext(&item));
    EXPECT_EQ(item.kind, WorkItem::Kind::kUnit);
    EXPECT_EQ(item.unit_id, want);
    EXPECT_EQ(item.sub, nullptr);
  }
  WorkItem item;
  EXPECT_FALSE(sched.TryNext(&item));
  EXPECT_EQ(sched.units_pending(), 0u);
}

TEST(WorkSchedulerTest, SubsOutrankWholeUnits) {
  WorkScheduler sched;
  sched.Reset(UnitIds(3));

  WorkItem item;
  ASSERT_TRUE(sched.TryNext(&item));
  ASSERT_EQ(item.kind, WorkItem::Kind::kUnit);
  ASSERT_EQ(item.unit_id, 0u);

  // Unit 0's owner publishes two children; they must be claimed before
  // units 1 and 2, in publication order.
  int payload_a = 0;
  int payload_b = 0;
  sched.PushSubs(0, {&payload_a, &payload_b});

  ASSERT_TRUE(sched.TryNext(&item));
  EXPECT_EQ(item.kind, WorkItem::Kind::kSub);
  EXPECT_EQ(item.unit_id, 0u);
  EXPECT_EQ(item.sub, &payload_a);

  ASSERT_TRUE(sched.TryNext(&item));
  EXPECT_EQ(item.kind, WorkItem::Kind::kSub);
  EXPECT_EQ(item.sub, &payload_b);

  ASSERT_TRUE(sched.TryNext(&item));
  EXPECT_EQ(item.kind, WorkItem::Kind::kUnit);
  EXPECT_EQ(item.unit_id, 1u);
}

TEST(WorkSchedulerTest, TryNextSubNeverClaimsWholeUnits) {
  WorkScheduler sched;
  sched.Reset(UnitIds(2));

  WorkItem item;
  EXPECT_FALSE(sched.TryNextSub(&item));
  EXPECT_EQ(sched.units_pending(), 2u);  // untouched

  int payload = 0;
  sched.PushSubs(0, {&payload});
  ASSERT_TRUE(sched.TryNextSub(&item));
  EXPECT_EQ(item.kind, WorkItem::Kind::kSub);
  EXPECT_EQ(item.sub, &payload);
  EXPECT_FALSE(sched.TryNextSub(&item));
  // The whole units are still there for TryNext.
  EXPECT_EQ(sched.units_pending(), 2u);
  ASSERT_TRUE(sched.TryNext(&item));
  EXPECT_EQ(item.kind, WorkItem::Kind::kUnit);
}

TEST(WorkSchedulerTest, ResetClearsEverything) {
  WorkScheduler sched;
  sched.Reset(UnitIds(2));
  WorkItem item;
  ASSERT_TRUE(sched.TryNext(&item));
  int payload = 0;
  sched.PushSubs(0, {&payload});

  sched.Reset(UnitIds(1));
  EXPECT_EQ(sched.units_pending(), 1u);
  // The stale sub from the previous generation must be gone.
  ASSERT_TRUE(sched.TryNext(&item));
  EXPECT_EQ(item.kind, WorkItem::Kind::kUnit);
  EXPECT_EQ(item.unit_id, 0u);
  EXPECT_FALSE(sched.TryNext(&item));
}

TEST(MarkSplittableUnitsTest, MarksOnlySkewedHeavyUnits) {
  // Mean weight = (1+1+1+1+16)/5 = 4; threshold = max(2, 8) = 8.
  const std::vector<bool> split = MarkSplittableUnits({1, 1, 1, 1, 16}, 2);
  EXPECT_EQ(split, (std::vector<bool>{false, false, false, false, true}));
}

TEST(MarkSplittableUnitsTest, MinSpansFloorStopsTinyDatabases) {
  // Uniform weights: 2*mean == every weight would qualify without the floor.
  const std::vector<uint64_t> weights = {3, 3, 3};
  EXPECT_EQ(MarkSplittableUnits(weights, 100), std::vector<bool>(3, false));

  // With a low floor, 2*mean = 6 still disqualifies uniform weight-3 units.
  EXPECT_EQ(MarkSplittableUnits(weights, 1), std::vector<bool>(3, false));
}

TEST(MarkSplittableUnitsTest, IndependentOfUnitOrderAndEmptyInput) {
  // Must not divide by zero.
  EXPECT_TRUE(MarkSplittableUnits({}, 2).empty());

  const std::vector<bool> a = MarkSplittableUnits({16, 1, 1, 1, 1}, 2);
  const std::vector<bool> b = MarkSplittableUnits({1, 1, 16, 1, 1}, 2);
  EXPECT_TRUE(a[0]);
  EXPECT_TRUE(b[2]);
}

TEST(WorkSchedulerTest, ConcurrentClaimsAreExactlyOnce) {
  constexpr int kUnits = 64;
  constexpr int kThreads = 8;
  WorkScheduler sched;
  sched.Reset(UnitIds(kUnits));

  // Each worker also publishes one sub per claimed even unit, so both
  // queues see contention. Subs are tagged by pointer identity.
  std::vector<int> sub_payloads(kUnits, 0);
  std::atomic<int> units_claimed{0};
  std::atomic<int> subs_claimed{0};
  std::vector<std::set<uint64_t>> per_thread_units(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      WorkItem item;
      while (sched.TryNext(&item)) {
        if (item.kind == WorkItem::Kind::kUnit) {
          per_thread_units[t].insert(item.unit_id);
          units_claimed.fetch_add(1, std::memory_order_relaxed);
          if (item.unit_id % 2 == 0) {
            sched.PushSubs(item.unit_id, {&sub_payloads[item.unit_id]});
          }
        } else {
          subs_claimed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Drain any subs published after the unit queue emptied.
      while (sched.TryNextSub(&item)) {
        subs_claimed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(units_claimed.load(), kUnits);
  EXPECT_EQ(subs_claimed.load(), kUnits / 2);
  std::set<uint64_t> all;
  for (const auto& s : per_thread_units) all.insert(s.begin(), s.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kUnits));
}

}  // namespace
}  // namespace tpm
