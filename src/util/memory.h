// Memory accounting for the memory-usage experiment (Fig 1(d)).
//
// Two complementary views:
//  * MemoryTracker — logical byte counters that miners update explicitly for
//    their dominant structures (projected databases, pattern stores). Exact,
//    comparable across algorithms, independent of allocator slack. One
//    tracker is one run's account, shared by all of its workers.
//  * ReadPeakRssBytes/ReadCurrentRssBytes — the OS view via /proc/self/status,
//    reported alongside for sanity.

#pragma once


#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tpm {

/// \brief Tracks logical bytes in use and the high-water mark.
///
/// Thread-safe: one tracker is the whole run's memory account, charged by
/// every worker of a parallel run (their arenas, patterns and guards all
/// point at it). Both counters are relaxed atomics; callers keep charges off
/// per-node paths (arena blocks, emitted patterns), so the shared cache line
/// is touched rarely.
class MemoryTracker {
 public:
  MemoryTracker() = default;

  /// Records an allocation of `bytes`.
  void Allocate(size_t bytes) {
    const size_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak && !peak_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }

  /// Records a release of `bytes`. Releasing more than allocated clamps to 0
  /// (and is a caller bug caught by tests in debug builds).
  void Release(size_t bytes) {
    size_t cur = current_.load(std::memory_order_relaxed);
    while (!current_.compare_exchange_weak(cur, bytes > cur ? 0 : cur - bytes,
                                           std::memory_order_relaxed)) {
    }
  }

  /// Bytes currently accounted for.
  size_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }

  /// Highest value current_bytes() ever reached.
  size_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

  /// Resets both counters to zero.
  void Reset() {
    current_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<size_t> current_{0};
  std::atomic<size_t> peak_{0};
};

/// Peak resident set size of this process in bytes (VmHWM), or 0 if
/// /proc is unavailable.
uint64_t ReadPeakRssBytes();

/// Current resident set size in bytes (VmRSS), or 0 if unavailable.
uint64_t ReadCurrentRssBytes();

}  // namespace tpm

