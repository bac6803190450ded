// Work-unit scheduler for the parallel growth engine (the "scheduler" layer
// of the scheduler / worker / merger split, docs/ARCHITECTURE.md).
//
// The engine's root-node scan produces the level-1 frequent-item buckets in
// a deterministic order (i_ext desc, code asc — the same order the
// single-thread recursion visited them). The engine's unit table freezes
// that order (unit id == index in bucket order), so a unit means the same
// subtree for every thread count, every completion order, and every
// checkpoint ever written. The scheduler queues only unit ids, which
// workers drain FIFO; nothing here inspects projections or patterns — the
// scheduler is pure bookkeeping, which is what keeps it language-agnostic
// and testable without a miner.
//
// Work stealing (--steal) adds a second, higher-priority queue of sub-units:
// an owner that opens a heavyweight unit publishes that unit's level-2
// children as sub-units any worker may claim, then drains the shared queue
// itself until its children are all accounted for. The sub payload is an
// engine-owned descriptor the scheduler never dereferences.
//
// Locking: one Mutex around the two cursors/queues. TryNext/PushSubs are
// called from every worker; the critical sections are a handful of pointer
// moves and never touch metrics, I/O, or another lock — a leaf lock, like
// every tpm::Mutex (util/sync.h aborts on nesting in debug builds).

#pragma once


#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/sync.h"

namespace tpm {

/// What TryNext hands a worker: a whole unit, or one stolen sub-unit of a
/// unit another worker opened. `sub` is an engine-owned descriptor.
struct WorkItem {
  enum class Kind { kNone, kUnit, kSub };
  Kind kind = Kind::kNone;
  uint64_t unit_id = 0;
  void* sub = nullptr;
};

/// Flags, per unit, whether its subtree is worth splitting: weight (the
/// unit's projected span count) at least `min_spans` and at least twice the
/// mean weight. Depends only on the projection sizes — never on the thread
/// count — so the work-item set (and therefore every per-item tally) is
/// identical for any --threads.
std::vector<bool> MarkSplittableUnits(const std::vector<uint64_t>& weights,
                                      uint64_t min_spans);

/// FIFO work queue shared by the workers. Sub-units outrank whole units so
/// a split unit's children finish promptly and their owner stops draining.
class WorkScheduler {
 public:
  WorkScheduler() = default;
  WorkScheduler(const WorkScheduler&) = delete;
  WorkScheduler& operator=(const WorkScheduler&) = delete;

  /// Replaces the queue with `unit_ids` (in deterministic id order).
  void Reset(std::vector<uint64_t> unit_ids);

  /// Claims the next item: the oldest unclaimed sub-unit if any, else the
  /// next whole unit in id order. False when both queues are drained (more
  /// sub-units may still be published by a worker splitting a unit — callers
  /// gate shutdown on their own outstanding-item count, not on this).
  bool TryNext(WorkItem* out);

  /// Claims the oldest unclaimed sub-unit only — never a whole unit. A
  /// split unit's owner drains with this while joining: claiming a whole
  /// unit there would rewind the owner's shallow arenas while thieves still
  /// read the published child views.
  bool TryNextSub(WorkItem* out);

  /// Publishes one split unit's sub-units in child order (atomically, so a
  /// failed TryNext never observes half a split).
  void PushSubs(uint64_t unit_id, const std::vector<void*>& subs);

  /// Whole units not yet handed out.
  uint64_t units_pending() const;

 private:
  mutable Mutex mu_;
  std::vector<uint64_t> unit_ids_ TPM_GUARDED_BY(mu_);
  size_t unit_cursor_ TPM_GUARDED_BY(mu_) = 0;
  std::vector<WorkItem> subs_ TPM_GUARDED_BY(mu_);
  size_t sub_cursor_ TPM_GUARDED_BY(mu_) = 0;
};

}  // namespace tpm
