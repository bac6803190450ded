// Search metrics for the mining hot paths. All miners share one name space
// so pruning effectiveness is comparable across algorithms (see
// docs/OBSERVABILITY.md for the taxonomy).
//
// A SearchTally is a plain struct one thread charges with non-atomic adds:
// each work item of a growth run owns one, the merger sums them element-wise
// (Add), and ChargeTo converts the sum into a MetricsRegistry under the
// shared names — at checkpoint boundaries and at run end, never per node.
// Going through a registry keeps the TPM_OBS_DISABLED contract: the
// converted snapshots are empty there.

#pragma once


#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/guard.h"
#include "util/sync.h"

namespace tpm {

/// {start, start + step, ...}: obs::LinearBounds as a constant array.
template <size_t N>
constexpr std::array<uint64_t, N> LinearTallyBounds(uint64_t start,
                                                    uint64_t step) {
  std::array<uint64_t, N> bounds{};
  for (size_t i = 0; i < N; ++i) bounds[i] = start + i * step;
  return bounds;
}

/// {start, start * 4, start * 16, ...}: obs::ExponentialBounds(start, 4.0, N)
/// as a constant array.
template <size_t N>
constexpr std::array<uint64_t, N> Pow4TallyBounds(uint64_t start) {
  std::array<uint64_t, N> bounds{};
  for (size_t i = 0; i < N; ++i) bounds[i] = start << (2 * i);
  return bounds;
}

inline constexpr auto kNodeDepthBounds = LinearTallyBounds<17>(0, 1);
inline constexpr auto kProjectedSeqsBounds = Pow4TallyBounds<10>(1);
inline constexpr auto kProjectedStatesBounds = Pow4TallyBounds<12>(1);
inline constexpr auto kArenaDepthBounds = Pow4TallyBounds<12>(1024);
inline constexpr auto kWorkerBounds = LinearTallyBounds<65>(0, 1);

/// Fixed-bound histogram with obs::Histogram's bucket rule: a value lands in
/// the first bucket whose bound is >= it, otherwise in the overflow bucket.
template <const auto& kBounds>
struct TallyHistogram {
  std::array<uint64_t, kBounds.size() + 1> counts{};
  uint64_t sum = 0;

  /// Records `times` observations of `v`.
  void Observe(uint64_t v, uint64_t times = 1) {
    const size_t b = static_cast<size_t>(
        std::lower_bound(kBounds.begin(), kBounds.end(), v) - kBounds.begin());
    counts[b] += times;
    sum += v * times;
  }

  void Add(const TallyHistogram& o) {
    for (size_t i = 0; i < counts.size(); ++i) counts[i] += o.counts[i];
    sum += o.sum;
  }

  static std::vector<uint64_t> Bounds() {
    return {kBounds.begin(), kBounds.end()};
  }

  /// Adds the buckets to `h`, a registry histogram registered with Bounds().
  void ChargeTo(obs::Histogram* h) const {
    h->MergeCounts(Bounds(), {counts.begin(), counts.end()}, sum);
  }
};

/// One work item's (or one run's) search charges.
struct SearchTally {
  // Prune-rule hit counters: one unit of work the rule removed.
  uint64_t pair_hits = 0;      ///< candidates the pair table rejected
  uint64_t postfix_hits = 0;   ///< (node, symbol) pairs removed by postfix
  uint64_t validity_hits = 0;  ///< closes driven directly by obligations
  uint64_t apriori_hits = 0;   ///< levelwise candidates failing Apriori
  uint64_t topk_hits = 0;      ///< children cut by the top-K bar, not minsup

  uint64_t candidates = 0;  ///< (node, key) pairs that reached admission
  uint64_t states = 0;      ///< occurrence states / projected entries
  uint64_t patterns = 0;    ///< frequent patterns reported
  uint64_t scan_items = 0;  ///< items handed to ScanState, summed over spans

  /// search.nodes: one observation per node, value = pattern item count.
  TallyHistogram<kNodeDepthBounds> nodes;
  TallyHistogram<kProjectedSeqsBounds> projected_seqs;
  TallyHistogram<kProjectedStatesBounds> projected_states;
  /// miner.arena.depth_bytes: per-node bytes of the child-depth arena after
  /// finalize (growth engines; see docs/ARCHITECTURE.md).
  TallyHistogram<kArenaDepthBounds> arena_depth_bytes;

  void Add(const SearchTally& o) {
    pair_hits += o.pair_hits;
    postfix_hits += o.postfix_hits;
    validity_hits += o.validity_hits;
    apriori_hits += o.apriori_hits;
    topk_hits += o.topk_hits;
    candidates += o.candidates;
    states += o.states;
    patterns += o.patterns;
    scan_items += o.scan_items;
    nodes.Add(o.nodes);
    projected_seqs.Add(o.projected_seqs);
    projected_states.Add(o.projected_states);
    arena_depth_bytes.Add(o.arena_depth_bytes);
  }

  /// Charges the tally to `r`. Every miner metric is registered, charged or
  /// not, so snapshots keep one shape whatever the search hit — including
  /// the run-end resource metrics the miners set at exit. prune.topk.hits
  /// is written only with the top-K bar on (`top_k`), so runs without it
  /// keep their metrics bytes.
  void ChargeTo(obs::MetricsRegistry* r, bool top_k) const {
    r->GetCounter("prune.pair.hits")->Increment(pair_hits);
    r->GetCounter("prune.postfix.hits")->Increment(postfix_hits);
    r->GetCounter("prune.validity.hits")->Increment(validity_hits);
    r->GetCounter("prune.apriori.hits")->Increment(apriori_hits);
    if (top_k) r->GetCounter("prune.topk.hits")->Increment(topk_hits);
    r->GetCounter("search.candidates")->Increment(candidates);
    r->GetCounter("search.states")->Increment(states);
    r->GetCounter("search.patterns")->Increment(patterns);
    r->GetCounter("search.scan_items")->Increment(scan_items);
    nodes.ChargeTo(r->GetHistogram("search.nodes", nodes.Bounds()));
    projected_seqs.ChargeTo(
        r->GetHistogram("search.projected_seqs", projected_seqs.Bounds()));
    projected_states.ChargeTo(
        r->GetHistogram("search.projected_states", projected_states.Bounds()));
    arena_depth_bytes.ChargeTo(r->GetHistogram("miner.arena.depth_bytes",
                                               arena_depth_bytes.Bounds()));
    r->GetCounter("miner.arena.blocks");
    r->GetGauge("miner.arena.peak_bytes");
    r->GetGauge("process.peak_rss_bytes");
  }

  /// The tally alone, converted through a private registry.
  obs::MetricsSnapshot Snapshot(bool top_k) const {
    obs::MetricsRegistry r;
    ChargeTo(&r, top_k);
    return r.Snapshot();
  }
};

/// Charges robust.stop.<reason> to `registry` when a guard stopped a run.
/// Off the hot path: called once per Mine() at exit.
inline void RecordStopMetrics(StopReason reason, obs::MetricsRegistry* registry) {
  if (reason == StopReason::kNone) return;
  registry->GetCounter(std::string("robust.stop.") + StopReasonName(reason))
      ->Increment();
}

/// Fault-point shim for miner allocation sites; charges
/// robust.fault.injected (to `registry`, or the global registry when null)
/// when it fires.
inline bool MinerFaultPoint(const char* site,
                            obs::MetricsRegistry* registry = nullptr) {
  // Allocation fault sites must not be reached with a lock held: an
  // injected failure would unwind through the critical section.
  CheckNoLocksHeld();
  if (TPM_FAULT_POINT(site)) {
    (registry != nullptr ? *registry : obs::MetricsRegistry::Global())
        .GetCounter("robust.fault.injected")
        ->Increment();
    return true;
  }
  return false;
}

}  // namespace tpm
