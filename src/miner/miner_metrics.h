// Cached metric handles for the mining hot paths. All miners share one name
// space so pruning effectiveness is comparable across algorithms (see
// docs/OBSERVABILITY.md for the taxonomy). The handles can be bound to any
// registry: Get() caches the process-global binding, ForRegistry() binds a
// per-run StatsDomain registry (obs/stats_domain.h) so workers account their
// search in isolation.

#pragma once


#include <string>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/guard.h"
#include "util/lockdep.h"

namespace tpm {

struct MinerMetrics {
  // Prune-rule hit counters: one admission/close the rule decided.
  obs::Counter* pair_hits;      ///< candidates rejected by pair pruning
  obs::Counter* postfix_hits;   ///< candidates rejected by postfix pruning
  obs::Counter* validity_hits;  ///< closes driven directly by obligations
  obs::Counter* apriori_hits;   ///< levelwise candidates failing Apriori

  obs::Counter* candidates;  ///< extension candidates considered
  obs::Counter* states;      ///< occurrence states / projected entries
  obs::Counter* patterns;    ///< frequent patterns reported

  obs::Histogram* node_depth;       ///< search.nodes: one observation per
                                    ///< node, value = pattern item count
  obs::Histogram* projected_seqs;   ///< sequences in a node's projection
  obs::Histogram* projected_states; ///< states in a node's projection

  // Projection-arena accounting (growth engines; see docs/ARCHITECTURE.md).
  obs::Gauge* arena_peak;            ///< miner.arena.peak_bytes: blocks
                                     ///< mapped by the last run's arenas
  obs::Counter* arena_blocks;        ///< miner.arena.blocks: blocks mapped
  obs::Histogram* arena_depth_bytes; ///< per-node bytes of the child-depth
                                     ///< arena after finalize

  obs::Gauge* process_peak_rss;      ///< process.peak_rss_bytes: VmHWM at
                                     ///< run end (0 off-Linux)

  /// Handles bound to `r`. Registration takes the registry mutex — bind
  /// once per run, not per node.
  static MinerMetrics ForRegistry(obs::MetricsRegistry* r) {
    MinerMetrics mm;
    mm.pair_hits = r->GetCounter("prune.pair.hits");
    mm.postfix_hits = r->GetCounter("prune.postfix.hits");
    mm.validity_hits = r->GetCounter("prune.validity.hits");
    mm.apriori_hits = r->GetCounter("prune.apriori.hits");
    mm.candidates = r->GetCounter("search.candidates");
    mm.states = r->GetCounter("search.states");
    mm.patterns = r->GetCounter("search.patterns");
    mm.node_depth =
        r->GetHistogram("search.nodes", obs::LinearBounds(0, 1, 17));
    mm.projected_seqs =
        r->GetHistogram("search.projected_seqs", obs::ExponentialBounds(1, 4.0, 10));
    mm.projected_states = r->GetHistogram("search.projected_states",
                                          obs::ExponentialBounds(1, 4.0, 12));
    mm.arena_peak = r->GetGauge("miner.arena.peak_bytes");
    mm.arena_blocks = r->GetCounter("miner.arena.blocks");
    mm.arena_depth_bytes = r->GetHistogram("miner.arena.depth_bytes",
                                           obs::ExponentialBounds(1024, 4.0, 12));
    mm.process_peak_rss = r->GetGauge("process.peak_rss_bytes");
    return mm;
  }

  static const MinerMetrics& Get() {
    static const MinerMetrics m =
        ForRegistry(&obs::MetricsRegistry::Global());
    return m;
  }
};

/// Charges robust.stop.<reason> to `registry` when a guard stopped a run.
/// Off the hot path: called once per Mine() at exit.
inline void RecordStopMetrics(StopReason reason, obs::MetricsRegistry* registry) {
  if (reason == StopReason::kNone) return;
  registry->GetCounter(std::string("robust.stop.") + StopReasonName(reason))
      ->Increment();
}

inline void RecordStopMetrics(StopReason reason) {
  RecordStopMetrics(reason, &obs::MetricsRegistry::Global());
}

/// Fault-point shim for miner allocation sites; charges
/// robust.fault.injected (to `registry`, or the global registry when null)
/// when it fires.
inline bool MinerFaultPoint(const char* site,
                            obs::MetricsRegistry* registry = nullptr) {
  (void)site;  // unused when TPM_FAULT_DISABLED compiles the point out
  // Allocation fault sites must not be reached with a lock held (Tier E):
  // an injected failure would unwind through the critical section.
  TPM_LOCKDEP_ASSERT_NO_LOCKS_HELD(site);
  if (TPM_FAULT_POINT(site)) {
    (registry != nullptr ? *registry : obs::MetricsRegistry::Global())
        .GetCounter("robust.fault.injected")
        ->Increment();
    return true;
  }
  return false;
}

}  // namespace tpm

