#include "util/guard.h"

namespace tpm {

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kMemory:
      return "memory";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kPatternCap:
      return "pattern-cap";
  }
  return "?";
}

bool ExecutionGuard::TimedCheck() {
  ++timed_checks_;
  if (limits_.time_budget_seconds > 0.0 &&
      timer_.ElapsedSeconds() > limits_.time_budget_seconds) {
    return Stop(StopReason::kDeadline);
  }
  // RSS backstop: logical bytes miss allocator slack and untracked side
  // structures, so every kRssSampleInterval clock reads compare the *growth*
  // of the resident set since guard construction against a generous multiple
  // of the budget. This only exists to stop runs whose real footprint has
  // left the logical accounting far behind.
  if (limits_.memory_budget_bytes > 0 && rss_countdown_-- == 0) {
    rss_countdown_ = kRssSampleInterval - 1;
    const uint64_t threshold = RssBackstopBytes(limits_.memory_budget_bytes);
    const uint64_t rss = ReadCurrentRssBytes();
    if (rss > 0 && rss > rss_baseline_bytes_ &&
        rss - rss_baseline_bytes_ > threshold) {
      return Stop(StopReason::kMemory);
    }
  }
  return false;
}

}  // namespace tpm
