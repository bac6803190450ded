// Resource governance for long-running mining loops.
//
// Every miner used to carry its own copy of the time-budget check; this
// header unifies them behind one ExecutionGuard that enforces a wall-clock
// deadline, a logical-byte memory budget (a MemoryTracker, possibly shared
// by several guards, plus a periodic RSS backstop), a pattern cap, and
// cooperative cancellation — and remembers *why* it stopped, so callers can
// report a StopReason alongside their partial results instead of a bare
// `truncated` bit.
//
// The guard is designed for hot loops: ShouldStop() is amortized. Cheap
// conditions (cancellation flag, logical-byte comparison) run on every call;
// the clock is only read every kTimeCheckInterval calls and the RSS file
// only every kRssSampleInterval clock reads, so worst-case stop latency is
// bounded by a few dozen node expansions while the steady-state cost is a
// couple of predictable branches.

#pragma once


#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "util/memory.h"
#include "util/timer.h"

namespace tpm {

/// Why a governed run stopped early. kNone means it ran to completion.
enum class StopReason : int {
  kNone = 0,
  kDeadline = 1,    ///< wall-clock budget exceeded
  kMemory = 2,      ///< logical-byte (or RSS backstop) budget exceeded
  kCancelled = 3,   ///< CancellationToken fired (e.g. SIGINT)
  kPatternCap = 4,  ///< max_patterns reached
};

/// Canonical lower-case name ("deadline", "memory", "cancelled",
/// "pattern-cap"; "none" for kNone).
const char* StopReasonName(StopReason reason);

/// \brief Cooperative cancellation flag, safe to set from a signal handler
/// (the store is a lock-free atomic).
///
/// The token outlives every run it is passed to; one token may govern many
/// runs (Reset() re-arms it between runs).
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Requests cancellation. Async-signal-safe.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once Cancel() was called (until Reset()).
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  /// Clears the flag so the token can govern another run.
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Limits an ExecutionGuard enforces; zero/null fields are unlimited.
struct GuardLimits {
  double time_budget_seconds = 0.0;
  size_t memory_budget_bytes = 0;  ///< logical bytes (MemoryTracker view)
  uint64_t max_patterns = 0;
  const CancellationToken* cancellation = nullptr;

  /// Fired exactly once, at the none -> reason transition, from whichever
  /// ShouldStop / NotePattern / Trip call tripped the guard — i.e. on the
  /// mining thread, off the hot path (the transition happens at most once
  /// per run). Observability hook: the growth engines record the stop in
  /// their flight recorder here. Must not re-enter the guard.
  std::function<void(StopReason)> on_stop;
};

/// \brief Amortized stop-condition checker for mining loops.
///
/// Usage (per run; the wall clock starts at construction):
/// \code
///   ExecutionGuard guard(limits, &tracker);
///   while (...) {
///     if (guard.ShouldStop()) break;          // per node
///     ...
///     if (guard.NotePattern(n_emitted)) break; // per emitted pattern
///   }
///   stats.truncated = guard.stopped();
///   stats.stop_reason = guard.reason();
/// \endcode
///
/// Thread-compatible, like the miners it governs: one guard per run, and the
/// run owns it exclusively. The fast-path state (`countdown_`, `reason_`,
/// `timed_checks_`) is deliberately plain, not atomic — making it shared
/// would put synchronization in the hottest loop of the search. The parallel
/// miner must give each worker its own guard (tripped externally via
/// Trip()/CancellationToken, whose flag IS atomic and async-signal-safe)
/// rather than share one; the Tier D locking lint flags any future attempt
/// to wrap a shared guard in a Mutex-owning class without annotations. The
/// guards may share one MemoryTracker, which is atomic: the parallel growth
/// engine's workers all compare the run's single account with the whole
/// memory budget.
class ExecutionGuard {
 public:
  /// How many ShouldStop() calls between wall-clock reads.
  static constexpr uint32_t kTimeCheckInterval = 32;
  /// How many wall-clock reads between /proc RSS samples.
  static constexpr uint32_t kRssSampleInterval = 64;
  /// The RSS backstop never trips on growth below this, no matter how small
  /// the budget: page granularity and allocator slack make small RSS deltas
  /// meaningless, and the logical-byte check already handles small budgets.
  static constexpr uint64_t kRssBackstopFloorBytes = 64ull << 20;

  /// RSS growth that trips the backstop under `budget_bytes`: 4x the budget,
  /// saturating rather than wrapping for budgets near SIZE_MAX, and never
  /// below the floor.
  static uint64_t RssBackstopBytes(uint64_t budget_bytes) {
    const uint64_t scaled =
        budget_bytes > UINT64_MAX / 4 ? UINT64_MAX : 4 * budget_bytes;
    return scaled > kRssBackstopFloorBytes ? scaled : kRssBackstopFloorBytes;
  }

  /// A guard with no limits: ShouldStop() is always false.
  ExecutionGuard() : ExecutionGuard(GuardLimits{}, nullptr) {}

  /// `tracker` may be null when no memory budget is set; it must outlive the
  /// guard otherwise.
  ExecutionGuard(const GuardLimits& limits, const MemoryTracker* tracker)
      : limits_(limits),
        tracker_(tracker),
        rss_baseline_bytes_(limits.memory_budget_bytes > 0 ? ReadCurrentRssBytes()
                                                           : 0) {}

  ExecutionGuard(const ExecutionGuard&) = delete;
  ExecutionGuard& operator=(const ExecutionGuard&) = delete;

  /// True when the run must stop. Sticky: once true, stays true.
  bool ShouldStop() {
    if (reason_ != StopReason::kNone) return true;
    if (limits_.cancellation != nullptr && limits_.cancellation->cancelled()) {
      return Stop(StopReason::kCancelled);
    }
    if (limits_.memory_budget_bytes > 0 && tracker_ != nullptr &&
        tracker_->current_bytes() > limits_.memory_budget_bytes) {
      return Stop(StopReason::kMemory);
    }
    if (countdown_-- == 0) {
      countdown_ = kTimeCheckInterval - 1;
      return TimedCheck();
    }
    return false;
  }

  /// Records that `patterns_emitted` patterns have been reported; trips the
  /// guard (and returns true) when the cap is reached.
  bool NotePattern(uint64_t patterns_emitted) {
    if (limits_.max_patterns > 0 && patterns_emitted >= limits_.max_patterns &&
        reason_ == StopReason::kNone) {
      Stop(StopReason::kPatternCap);
    }
    return reason_ == StopReason::kPatternCap;
  }

  /// Trips the guard externally (first reason wins).
  void Trip(StopReason reason) {
    if (reason_ == StopReason::kNone && reason != StopReason::kNone) {
      Stop(reason);
    }
  }

  /// True once any limit tripped.
  bool stopped() const { return reason_ != StopReason::kNone; }

  StopReason reason() const { return reason_; }

  /// Wall-clock reads performed so far (exposed for amortization tests).
  uint64_t timed_checks() const { return timed_checks_; }

 private:
  // Every none -> reason transition funnels through here so on_stop fires
  // exactly once per run. Always returns true (callers `return Stop(...)`).
  bool Stop(StopReason reason) {
    reason_ = reason;
    if (limits_.on_stop) limits_.on_stop(reason);
    return true;
  }

  // The expensive tail of ShouldStop: clock read + occasional RSS sample.
  bool TimedCheck();

  const GuardLimits limits_;
  const MemoryTracker* tracker_ = nullptr;
  const uint64_t rss_baseline_bytes_ = 0;
  WallTimer timer_;
  StopReason reason_ = StopReason::kNone;
  uint32_t countdown_ = 0;  // first call always reaches TimedCheck
  uint32_t rss_countdown_ = 0;
  uint64_t timed_checks_ = 0;
};

}  // namespace tpm

