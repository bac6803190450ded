// Mining options, statistics, and result containers shared by every miner.

#pragma once


#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pattern.h"
#include "core/types.h"
#include "obs/metrics.h"
#include "util/guard.h"

namespace tpm {

namespace obs {
class ProgressTracker;  // obs/progress.h
class StatsDomain;      // obs/stats_domain.h
}  // namespace obs

class CheckpointWriter;  // io/checkpoint.h
struct Checkpoint;       // io/checkpoint.h

/// Which pattern language a miner speaks.
enum class PatternType { kEndpoint, kCoincidence };

const char* PatternTypeName(PatternType t);

/// \brief Options accepted by every miner. Fields a miner does not support
/// are ignored (each miner documents which prunings it honors).
struct MinerOptions {
  /// Minimum support: a fraction of |D| when in (0, 1], an absolute sequence
  /// count when > 1.
  double min_support = 0.01;

  /// Maximum number of items (endpoints / symbols) per pattern; 0 = unlimited.
  uint32_t max_items = 0;

  /// Maximum number of slices/coincidences per pattern; 0 = unlimited.
  uint32_t max_length = 0;

  /// Time-window constraint; 0 = unlimited. An occurrence only counts when
  /// it fits within this many time units (endpoint language: last matched
  /// slice time minus first matched slice time; coincidence language: last
  /// matched segment end minus first matched segment start).
  TimeT max_window = 0;

  /// Stop after reporting this many patterns (safety valve for benches);
  /// 0 = unlimited. When hit, MiningStats::truncated is set.
  uint64_t max_patterns = 0;

  /// Wall-clock budget in seconds; mining stops (truncated) when exceeded.
  /// 0 = unlimited. Checked at node granularity with bounded latency
  /// (ExecutionGuard amortizes the clock reads).
  double time_budget_seconds = 0.0;

  /// Logical-byte budget (MemoryTracker view, the same accounting
  /// MiningStats::peak_tracked_bytes reports); mining stops (truncated,
  /// StopReason::kMemory) when the miner's live structures exceed it.
  /// A periodic RSS sample backstops gross untracked growth. 0 = unlimited.
  size_t memory_budget_bytes = 0;

  /// Cooperative cancellation: when set, the miner polls the token at node
  /// granularity and stops (truncated, StopReason::kCancelled) once it
  /// fires. The token must outlive the Mine() call. Not owned.
  const CancellationToken* cancellation = nullptr;

  /// Observability domain the run charges (metrics + flight recorder). When
  /// null the miner creates a private throwaway domain; either way the
  /// run's delta is folded into the global registry at exit, so process-wide
  /// scrapes keep working. Must outlive the Mine() call. Not owned.
  obs::StatsDomain* stats_domain = nullptr;

  /// Live progress/ETA sink (obs/progress.h): ticked per expanded node and
  /// fed the level-1 bucket totals; the miner calls Finish() at run end.
  /// Null disables progress tracking (zero hot-path cost). Must outlive the
  /// Mine() call. Not owned.
  obs::ProgressTracker* progress = nullptr;

  /// Interval-gated checkpoint sink (io/checkpoint.h): a growth miner
  /// snapshots its completed-unit state after each depth-0 bucket and writes
  /// when the gate is due, plus a final checkpoint on any truncated exit.
  /// Null disables checkpointing (zero hot-path cost — the default). The
  /// level-wise miners refuse a non-null writer. Must outlive the Mine()
  /// call. Not owned.
  CheckpointWriter* checkpoint_writer = nullptr;

  /// Checkpoint to resume from: the miner validates the run identity
  /// (InvalidArgument naming every differing field on mismatch), skips
  /// completed units, seeds prior patterns, and merges the prior metrics
  /// delta into the result snapshot. Growth miners only. Must outlive the
  /// Mine() call. Not owned.
  const Checkpoint* resume = nullptr;

  /// Bundles the four budget fields for ExecutionGuard.
  GuardLimits ToGuardLimits() const {
    GuardLimits limits;
    limits.time_budget_seconds = time_budget_seconds;
    limits.memory_budget_bytes = memory_budget_bytes;
    limits.max_patterns = max_patterns;
    limits.cancellation = cancellation;
    return limits;
  }

  /// Worker threads for the growth engines (docs/ARCHITECTURE.md,
  /// "Scheduler / worker / merger"). The preamble (the database check, the
  /// representation build, the co-occurrence table and the root node) runs
  /// in contiguous ranges, one per worker, and N workers drain the shared
  /// work-unit queue: the calling thread is worker 0 and merges completed
  /// units, and N > 1 adds N-1 helper threads. Each worker owns its arenas
  /// and guard; all charge the run's one memory account. Output is
  /// byte-identical for every value. Level-wise miners ignore this.
  uint32_t threads = 1;

  /// Opt-in work stealing: split heavyweight depth-0 units into per-child
  /// sub-units other workers can pick up. The split decision depends only on
  /// the projection (never on the thread count), so results stay
  /// byte-identical across thread counts with the flag either way.
  bool steal = false;

  /// Top-K support bar for the growth engines (docs/ARCHITECTURE.md,
  /// "Top-K support bar"). With K > 0 the search prunes below the K-th best
  /// support found so far, which never exceeds the true K-th best support.
  /// The result is then every pattern whose support reaches the final bar:
  /// a superset of the K best, ties at the cut included. Rank it with
  /// TopKBySupport. The bar is off (as if 0) when checkpoint_writer or
  /// resume is set, so unit banks stay complete. Level-wise miners ignore
  /// this.
  uint64_t top_k = 0;

  // --- P-TPMiner pruning toggles (see DESIGN.md §2.1) ---
  bool pair_pruning = true;
  bool postfix_pruning = true;
  bool validity_pruning = true;
};

/// \brief Selects between a language's two prefix-growth miners
/// (MineEndpointGrowth / MineCoincidenceGrowth).
struct GrowthConfig {
  /// The physical-projection baseline (TPrefixSpan / CTMiner): copy every
  /// node's postfixes before scanning it, and ignore the pruning toggles.
  bool baseline = false;
};

/// \brief Counters every miner fills in; the benchmark harness prints them.
struct MiningStats {
  double build_seconds = 0.0;      ///< representation construction
  double mine_seconds = 0.0;       ///< pattern search
  uint64_t patterns_found = 0;     ///< complete frequent patterns reported
  uint64_t nodes_expanded = 0;     ///< search-tree nodes / candidates kept
  uint64_t candidates_checked = 0; ///< extension candidates considered
  uint64_t states_created = 0;     ///< occurrence states / projected entries
  size_t peak_tracked_bytes = 0;   ///< MemoryTracker high-water mark
  size_t build_bytes = 0;          ///< representation + co-occurrence table
  size_t arena_peak_bytes = 0;     ///< projection arena blocks mapped (0 for
                                   ///< level-wise; see docs/ARCHITECTURE.md)
  uint64_t peak_rss_bytes = 0;     ///< OS VmHWM after mining
  bool truncated = false;          ///< true when a cap or budget stopped mining
  StopReason stop_reason = StopReason::kNone;  ///< which limit stopped mining

  /// Delta snapshot of the global metrics registry covering this run
  /// (prune.* counters, search.* histograms, ...). Empty when the
  /// observability subsystem is compiled out (TPM_OBS_DISABLED).
  obs::MetricsSnapshot metrics;

  std::string ToString() const;
};

/// A mined pattern with its absolute support.
template <typename PatternT>
struct MinedPattern {
  PatternT pattern;
  SupportCount support = 0;

  friend bool operator==(const MinedPattern& a, const MinedPattern& b) {
    return a.support == b.support && a.pattern == b.pattern;
  }
};

/// \brief Result of one mining run.
template <typename PatternT>
struct MiningResult {
  std::vector<MinedPattern<PatternT>> patterns;
  MiningStats stats;

  /// Sorts patterns lexicographically for stable comparison across miners.
  void SortCanonically();
};

using EndpointMiningResult = MiningResult<EndpointPattern>;
using CoincidenceMiningResult = MiningResult<CoincidencePattern>;

}  // namespace tpm

