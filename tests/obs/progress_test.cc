// ProgressTracker: per-worker slots, slot 0's amortized ticking and
// interval gating, ETA projection, live bytes from the run's memory account,
// and the StatsDomain charges per emission.

#include "obs/progress.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/stats_domain.h"
#include "util/memory.h"

namespace tpm {
namespace obs {
namespace {

TEST(ProgressTrackerTest, ZeroIntervalEmitsOnEveryClockCheck) {
  std::vector<ProgressSnapshot> seen;
  ProgressTracker tracker(0.0,
                          [&seen](const ProgressSnapshot& s) { seen.push_back(s); });
  tracker.ConfigureWorkers(1, nullptr);
  // Slot 0's countdown reaches the clock once per kCheckInterval ticks;
  // with a zero interval every check emits.
  const uint64_t ticks = ProgressTracker::kCheckInterval * 3;
  for (uint64_t i = 1; i <= ticks; ++i) tracker.TickWorker(0);
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(tracker.snapshots_emitted(), 3u);
  EXPECT_EQ(seen.back().nodes, ticks - ProgressTracker::kCheckInterval + 1);
  EXPECT_FALSE(seen.back().final_snapshot);
}

TEST(ProgressTrackerTest, LargeIntervalSuppressesPeriodicEmissions) {
  std::vector<ProgressSnapshot> seen;
  ProgressTracker tracker(3600.0,
                          [&seen](const ProgressSnapshot& s) { seen.push_back(s); });
  tracker.ConfigureWorkers(1, nullptr);
  for (uint64_t i = 1; i <= 10 * ProgressTracker::kCheckInterval; ++i) {
    tracker.TickWorker(0);
  }
  EXPECT_TRUE(seen.empty());
  tracker.Finish();  // the final snapshot ignores the interval
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_TRUE(seen[0].final_snapshot);
  EXPECT_EQ(seen[0].nodes, 10u * ProgressTracker::kCheckInterval);
}

TEST(ProgressTrackerTest, EtaComesFromBucketCompletion) {
  std::vector<ProgressSnapshot> seen;
  ProgressTracker tracker(0.0,
                          [&seen](const ProgressSnapshot& s) { seen.push_back(s); });
  tracker.ConfigureWorkers(1, nullptr);
  tracker.SetTotalBuckets(10);
  // No bucket done yet: ETA unknown.
  for (uint64_t i = 1; i <= ProgressTracker::kCheckInterval; ++i) {
    tracker.TickWorker(0);
  }
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.back().buckets_total, 10u);
  EXPECT_EQ(seen.back().buckets_done, 0u);
  EXPECT_LT(seen.back().eta_seconds, 0.0);
  // Half the buckets done: ETA is defined and roughly equals elapsed.
  for (int d = 0; d < 5; ++d) tracker.NoteWorkerBucketDone(0);
  for (uint64_t i = 1; i <= ProgressTracker::kCheckInterval; ++i) {
    tracker.TickWorker(0);
  }
  const ProgressSnapshot& last = seen.back();
  EXPECT_EQ(last.buckets_done, 5u);
  EXPECT_GE(last.eta_seconds, 0.0);
  EXPECT_NEAR(last.eta_seconds, last.elapsed_seconds, 1e-6 + last.elapsed_seconds);
}

TEST(ProgressTrackerTest, FinalSnapshotHasNoEta) {
  ProgressSnapshot last;
  ProgressTracker tracker(3600.0,
                          [&last](const ProgressSnapshot& s) { last = s; });
  MemoryTracker account;
  account.Allocate(100);
  tracker.ConfigureWorkers(1, &account);
  tracker.SetTotalBuckets(4);
  tracker.NoteWorkerBucketDone(0);
  tracker.TickWorker(0);
  tracker.NoteWorkerPattern(0);
  tracker.NoteWorkerPattern(0);
  tracker.Finish();
  EXPECT_TRUE(last.final_snapshot);
  EXPECT_LT(last.eta_seconds, 0.0);
  EXPECT_EQ(last.patterns, 2u);
  EXPECT_EQ(last.projected_bytes, 100u);
}

#ifndef TPM_OBS_DISABLED
TEST(ProgressTrackerTest, ChargesDomainPerEmission) {
  StatsDomain domain("d");
  ProgressTracker tracker(0.0, nullptr, &domain);
  tracker.ConfigureWorkers(1, nullptr);
  for (uint64_t i = 1; i <= 2 * ProgressTracker::kCheckInterval; ++i) {
    tracker.TickWorker(0);
  }
  tracker.Finish();
  EXPECT_EQ(domain.Snapshot().CounterValue("progress.snapshots"),
            tracker.snapshots_emitted());
  EXPECT_EQ(tracker.snapshots_emitted(), 3u);
}
#endif

TEST(ProgressTrackerTest, WorkerSlotsFoldIntoSnapshots) {
  std::vector<ProgressSnapshot> seen;
  ProgressTracker tracker(3600.0,
                          [&seen](const ProgressSnapshot& s) { seen.push_back(s); });
  MemoryTracker account;
  tracker.SetTotalBuckets(6);
  tracker.ConfigureWorkers(3, &account);
  // Each worker publishes into its own slot; the live bytes are the shared
  // run account's value at emission, not a per-slot sum.
  const uint64_t nodes[3] = {50, 30, 5};
  const uint64_t patterns[3] = {3, 2, 0};
  for (uint32_t w = 0; w < 3; ++w) {
    for (uint64_t i = 0; i < nodes[w]; ++i) tracker.TickWorker(w);
    for (uint64_t i = 0; i < patterns[w]; ++i) tracker.NoteWorkerPattern(w);
  }
  tracker.NoteWorkerBucketDone(0);
  tracker.NoteWorkerBucketDone(0);
  tracker.NoteWorkerBucketDone(2);
  account.Allocate(1550);
  tracker.Finish();
  ASSERT_EQ(seen.size(), 1u);
  const ProgressSnapshot& snap = seen.back();
  EXPECT_EQ(snap.nodes, 50u + 30 + 5);
  EXPECT_EQ(snap.patterns, 3u + 2);
  EXPECT_EQ(snap.projected_bytes, 1550u);
  EXPECT_EQ(snap.buckets_done, 3u);
  EXPECT_EQ(snap.buckets_total, 6u);
}

TEST(ProgressTrackerTest, OnlySlotZeroDrivesEmission) {
  std::vector<ProgressSnapshot> seen;
  ProgressTracker tracker(0.0,
                          [&seen](const ProgressSnapshot& s) { seen.push_back(s); });
  tracker.ConfigureWorkers(2, nullptr);
  for (uint64_t i = 0; i < 10 * ProgressTracker::kCheckInterval; ++i) {
    tracker.TickWorker(1);
  }
  EXPECT_TRUE(seen.empty());
  tracker.TickWorker(0);  // the owner's first tick reaches the clock
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].nodes, 10u * ProgressTracker::kCheckInterval + 1);
}

TEST(ProgressTrackerTest, ConcurrentWorkerTicksAreSafe) {
  // Helpers hammer their slots and the shared account while worker 0 ticks
  // (and so emits) and polls — meaningful under TSan; the final fold must
  // see every slot's ticks exactly once.
  std::vector<ProgressSnapshot> seen;
  ProgressTracker tracker(0.0,
                          [&seen](const ProgressSnapshot& s) { seen.push_back(s); });
  constexpr uint32_t kWorkers = 4;
  constexpr uint64_t kTicks = 2000;
  MemoryTracker account;
  tracker.ConfigureWorkers(kWorkers, &account);
  auto work = [&tracker, &account](uint32_t w) {
    for (uint64_t i = 1; i <= kTicks; ++i) {
      tracker.TickWorker(w);
      if (i % 10 == 0) tracker.NoteWorkerPattern(w);
      account.Allocate(4);
    }
    tracker.NoteWorkerBucketDone(w);
  };
  std::vector<std::thread> threads;
  for (uint32_t w = 1; w < kWorkers; ++w) threads.emplace_back(work, w);
  work(0);
  for (int poll = 0; poll < 100; ++poll) tracker.PollEmit();
  for (std::thread& th : threads) th.join();
  tracker.Finish();
  ASSERT_FALSE(seen.empty());
  const ProgressSnapshot& snap = seen.back();
  EXPECT_EQ(snap.nodes, kWorkers * kTicks);
  EXPECT_EQ(snap.patterns, kWorkers * (kTicks / 10));
  EXPECT_EQ(snap.projected_bytes, kWorkers * kTicks * 4);
  EXPECT_EQ(snap.buckets_done, static_cast<uint64_t>(kWorkers));
}

TEST(ProgressSnapshotTest, ToStringShapes) {
  ProgressSnapshot snap;
  snap.nodes = 1000;
  snap.patterns = 10;
  snap.elapsed_seconds = 2.0;
  snap.nodes_per_second = 500.0;
  std::string s = snap.ToString();
  EXPECT_NE(s.find("progress:"), std::string::npos);
  EXPECT_NE(s.find("1000 nodes"), std::string::npos);
  EXPECT_EQ(s.find("buckets"), std::string::npos);  // total unknown
  EXPECT_EQ(s.find("eta"), std::string::npos);      // eta unknown

  snap.buckets_done = 3;
  snap.buckets_total = 9;
  snap.eta_seconds = 4.0;
  s = snap.ToString();
  EXPECT_NE(s.find("3/9 buckets"), std::string::npos);
  EXPECT_NE(s.find("eta 4.0s"), std::string::npos);

  snap.final_snapshot = true;
  EXPECT_NE(snap.ToString().find("progress(final):"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace tpm
