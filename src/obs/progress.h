// Live progress / ETA for long mining runs (`tpm mine --progress`).
//
// The growth engine runs N workers, the calling thread being worker 0. It
// calls ConfigureWorkers(N, &account) once per run, before the root node is
// expanded; every context then publishes through its own cache-line-padded
// slot: TickWorker once per expanded node, NoteWorkerPattern per emitted
// pattern, NoteWorkerBucketDone per finished depth-0 bucket. Each slot has a
// single writer (worker w's thread), so a publish is a relaxed load and
// store — no shared hot counter, no contention.
//
// Slot 0 is the owner's: its ticks also drive emission. Like ExecutionGuard,
// TickWorker(0) amortizes the clock: it counts down kCheckInterval ticks
// between steady-clock reads, so the steady-state cost is one predictable
// branch per node, and only every 32nd node of worker 0 pays a clock read
// (and, when the emission interval elapsed, a snapshot + sink call). While
// worker 0 waits for other workers' tails it calls PollEmit instead.
// Emission folds every slot; the live-bytes figure is the run's memory
// account, read at emission.
//
// ETA comes from the level-1 bucket walk: the engine announces how many
// admitted root buckets exist (SetTotalBuckets) and marks each one done, so
// `elapsed / done * (total - done)` projects the remaining wall time from
// completed subtrees — coarse, but honest about the only unit of work whose
// total is known up front. Before the first bucket completes the ETA is
// unknown (-1).
//
// Every emission samples the Linux VmHWM peak-RSS gauge (0 on other
// platforms, see util/memory.h), so a truncated run's recorded peak is the
// peak *at truncation time*, not just at exit. Emissions are charged to the
// owning StatsDomain (progress.snapshots counter, process.peak_rss_bytes
// gauge) when one is attached. Emission stays single-owner: only worker 0's
// thread may call ConfigureWorkers, SetTotalBuckets, TickWorker(0),
// PollEmit, or Finish.

#pragma once


#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "util/memory.h"
#include "util/timer.h"

namespace tpm {
namespace obs {

class StatsDomain;
class Counter;
class Gauge;

/// One periodic (or final) progress emission.
struct ProgressSnapshot {
  double elapsed_seconds = 0.0;
  uint64_t buckets_done = 0;
  uint64_t buckets_total = 0;   ///< 0 until the engine announces the total
  uint64_t nodes = 0;           ///< search-tree nodes expanded so far
  uint64_t patterns = 0;        ///< patterns reported so far
  uint64_t projected_bytes = 0; ///< live tracked bytes (projections + reps)
  double nodes_per_second = 0.0;
  double eta_seconds = -1.0;    ///< projected remaining seconds; -1 = unknown
  uint64_t peak_rss_bytes = 0;  ///< VmHWM at emission time (0 off-Linux)
  bool final_snapshot = false;  ///< true for the end-of-run emission

  /// One status line, e.g.
  /// "progress: 12/40 buckets  184320 nodes (61440/s)  97 patterns
  ///  12.4 MiB  elapsed 3.0s  eta 7.1s".
  std::string ToString() const;
};

class ProgressTracker {
 public:
  /// Ticks between clock reads — same amortization as ExecutionGuard.
  static constexpr uint32_t kCheckInterval = 32;

  using Sink = std::function<void(const ProgressSnapshot&)>;

  /// Emits to `sink` at most every `interval_seconds` (0 emits on every
  /// clock read). `domain`, when non-null, is charged per emission and must
  /// outlive the tracker.
  ProgressTracker(double interval_seconds, Sink sink,
                  StatsDomain* domain = nullptr);

  ProgressTracker(const ProgressTracker&) = delete;
  ProgressTracker& operator=(const ProgressTracker&) = delete;

  /// Allocates `num_workers` zeroed slots and binds the run's memory
  /// account (may be null: bytes then read 0), which must outlive every
  /// later emission. Call once per run, before any worker ticks.
  void ConfigureWorkers(uint32_t num_workers, const MemoryTracker* account);

  void SetTotalBuckets(uint64_t total) { buckets_total_ = total; }

  /// Hot-path hook: worker `w` expanded one more node. On slot 0 it also
  /// checks the clock every kCheckInterval calls and possibly emits.
  void TickWorker(uint32_t w) {
    Bump(slots_[w].nodes);
    if (w == 0 && countdown_-- == 0) {
      countdown_ = kCheckInterval - 1;
      MaybeEmit();
    }
  }

  /// Worker `w` emitted one more pattern.
  void NoteWorkerPattern(uint32_t w) { Bump(slots_[w].patterns); }

  /// Worker `w` finished one more depth-0 bucket.
  void NoteWorkerBucketDone(uint32_t w) { Bump(slots_[w].buckets); }

  /// Owner-side: emits if the interval elapsed (worker 0's idle back-off).
  void PollEmit() { MaybeEmit(); }

  /// Emits the final snapshot (always, regardless of interval).
  void Finish();

  uint64_t snapshots_emitted() const { return emitted_; }

 private:
  // One cache line per worker so hot ticks never false-share.
  struct alignas(64) WorkerSlot {
    std::atomic<uint64_t> nodes{0};
    std::atomic<uint64_t> patterns{0};
    std::atomic<uint64_t> buckets{0};
  };

  // Single-writer increment: a relaxed load and store, no locked RMW.
  static void Bump(std::atomic<uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  void MaybeEmit();
  ProgressSnapshot Build(double elapsed, bool final_snapshot) const;
  void Emit(const ProgressSnapshot& snap);

  const double interval_seconds_;
  Sink sink_;
  Counter* snapshots_counter_ = nullptr;  // progress.snapshots
  Gauge* peak_rss_gauge_ = nullptr;       // process.peak_rss_bytes

  WallTimer timer_;
  double last_emit_seconds_ = 0.0;
  uint64_t emitted_ = 0;
  uint32_t countdown_ = 0;  // first tick always reaches MaybeEmit

  uint64_t buckets_total_ = 0;
  const MemoryTracker* account_ = nullptr;

  std::unique_ptr<WorkerSlot[]> slots_;
  uint32_t num_slots_ = 0;
};

}  // namespace obs
}  // namespace tpm
