// tpm::Mutex / tpm::MutexLock tests (Tier D, docs/STATIC_ANALYSIS.md).
//
// The single-threaded tests pin the lock/unlock contract; the stress tests
// hammer a TPM_GUARDED_BY-annotated counter from many threads and assert
// the exact total — under the TSan CI job they double as a data race probe
// for the wrapper itself. The capability annotations compile to no-ops here
// under GCC; the Clang thread-safety CI build proves them. The death tests
// pin the leaf-lock check, which only builds without NDEBUG compile in (the
// debug-validators CI job greps that they ran there).

#include "util/sync.h"

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/io_fault.h"
#include "miner/miner_metrics.h"

namespace tpm {
namespace {

constexpr int kThreads = 8;
constexpr int kIterations = 5000;

// The annotated shape every mutex-owning class in src/ follows.
struct GuardedCounter {
  Mutex mu;
  uint64_t value TPM_GUARDED_BY(mu) = 0;

  void Add(uint64_t n) {
    MutexLock lock(&mu);
    value += n;
  }

  uint64_t Get() {
    MutexLock lock(&mu);
    return value;
  }
};

TEST(MutexTest, LockUnlockRoundTrip) {
  Mutex mu;
  mu.Lock();
  mu.Unlock();
  mu.Lock();
  mu.Unlock();
}

TEST(MutexStressTest, ExplicitLockUnlockKeepsCountExact) {
  Mutex mu;
  uint64_t counter TPM_GUARDED_BY(mu) = 0;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &counter]() {
      for (int i = 0; i < kIterations; ++i) {
        mu.Lock();
        ++counter;
        mu.Unlock();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  mu.Lock();
  EXPECT_EQ(counter, static_cast<uint64_t>(kThreads) * kIterations);
  mu.Unlock();
}

TEST(MutexStressTest, ScopedMutexLockKeepsCountExact) {
  GuardedCounter counter;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (int i = 0; i < kIterations; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Get(), static_cast<uint64_t>(kThreads) * kIterations);
}

#ifdef NDEBUG
constexpr bool kLeafCheckLive = false;
#else
constexpr bool kLeafCheckLive = true;
#endif

TEST(LeafLockDeathTest, SecondMutexWhileHoldingOneAborts) {
  if (!kLeafCheckLive) GTEST_SKIP() << "leaf-lock check compiled out (NDEBUG)";
  Mutex outer;
  Mutex inner;
  EXPECT_DEATH(
      {
        MutexLock lo(&outer);
        MutexLock li(&inner);
      },
      "every tpm::Mutex is a leaf");
}

TEST(LeafLockDeathTest, FaultPointWithLockHeldAborts) {
  if (!kLeafCheckLive) GTEST_SKIP() << "leaf-lock check compiled out (NDEBUG)";
  Mutex mu;
  EXPECT_DEATH(
      {
        MutexLock lock(&mu);
        (void)IoFaultPoint("io.write");
      },
      "fault point reached with a tpm::Mutex held");
  EXPECT_DEATH(
      {
        MutexLock lock(&mu);
        (void)MinerFaultPoint("miner.alloc");
      },
      "fault point reached with a tpm::Mutex held");
}

}  // namespace
}  // namespace tpm
