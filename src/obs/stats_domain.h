// StatsDomain: an isolated per-run observability domain.
//
// The global MetricsRegistry is the right sink for a single-run CLI process,
// but a run that shares its process with others (tests, benchmarks, a
// library caller) needs to account its search in isolation and then fold
// the result in deterministically. A StatsDomain bundles a private
// MetricsRegistry (same lock-free handles, same names as the global
// taxonomy) with a FlightRecorder for postmortems; miners charge the domain
// instead of the process-global registry and the owner decides what to do
// with the numbers:
//
//   obs::StatsDomain domain("mine");
//   options.stats_domain = &domain;            // miner charges this domain
//   ... mine ...
//   merged = obs::MergeDomainSnapshots({d1.TakeSnapshot(), d2.TakeSnapshot()});
//   domain.PublishTo(&obs::MetricsRegistry::Global());   // or fold globally
//
// Work items inside a growth run do not get a domain: they charge a plain
// SearchTally (miner/miner_metrics.h) that the run converts at checkpoint
// boundaries and at run end.
//
// MergeDomainSnapshots is the merge contract: the result is byte-identical
// for any completion / registration order of the input domains (see the
// function comment for the exact fold rules).
//
// Thread-compatibility: the registry inside a domain is as thread-safe as
// the global one, so several threads MAY charge one domain. The
// FlightRecorder and TakeSnapshot are single-owner, like the miner that
// drives them.

#pragma once


#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/sched_test.h"

namespace tpm {
namespace obs {

/// A domain's metrics frozen for merging, tagged with the domain id.
struct DomainSnapshot {
  std::string domain_id;
  MetricsSnapshot snapshot;
};

class StatsDomain {
 public:
  /// `id` names the domain in merged output and postmortems (e.g. "mine",
  /// "worker-0", a request id). Ids should be unique among domains merged
  /// together; duplicates still merge deterministically (the fold rules are
  /// commutative) but become indistinguishable in postmortems.
  explicit StatsDomain(std::string id,
                       size_t flight_capacity = FlightRecorder::kDefaultCapacity)
      : id_(std::move(id)), recorder_(flight_capacity) {}

  StatsDomain(const StatsDomain&) = delete;
  StatsDomain& operator=(const StatsDomain&) = delete;

  const std::string& id() const { return id_; }

  /// The domain's private registry. Handles obtained here are valid for the
  /// domain's lifetime and never alias the global registry's.
  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

  // Convenience forwards so charge sites read like registry calls (and the
  // metric-name lint sees the literal at the call site).
  Counter* GetCounter(const std::string& name) {
    return registry_.GetCounter(name);
  }
  Gauge* GetGauge(const std::string& name) { return registry_.GetGauge(name); }
  Histogram* GetHistogram(const std::string& name,
                          std::vector<uint64_t> bounds) {
    return registry_.GetHistogram(name, std::move(bounds));
  }

  /// Records a flight-recorder milestone and counts it under
  /// obs.flight.events so merged snapshots show recorder activity.
  void RecordEvent(const char* kind, uint64_t a = 0, uint64_t b = 0) {
    recorder_.Record(kind, a, b);
    registry_.GetCounter("obs.flight.events")->Increment();
  }

  MetricsSnapshot Snapshot() const { return registry_.Snapshot(); }

  DomainSnapshot TakeSnapshot() const {
    // Tier E seam: a worker snapshotting for the cross-thread merge — the
    // point whose timing relative to other workers must not matter
    // (util/sched_test.h).
    TPM_TEST_YIELD("obs.domain.snapshot");
    return {id_, registry_.Snapshot()};
  }

  /// Folds this domain's current values into `target` (usually the global
  /// registry) via MetricsRegistry::MergeSnapshot.
  void PublishTo(MetricsRegistry* target) const {
    // Tier E seam: publication into a shared registry races with other
    // publishers; the fold must be order-invariant (util/sched_test.h).
    TPM_TEST_YIELD("obs.domain.publish");
    target->MergeSnapshot(registry_.Snapshot());
  }

 private:
  std::string id_;
  MetricsRegistry registry_;
  FlightRecorder recorder_;
};

/// Deterministically folds N domain snapshots into one MetricsSnapshot. The
/// result depends only on the multiset of inputs, never on their order:
/// domains are sorted by id first, metrics are emitted sorted by name, and
/// every fold rule is commutative and associative —
///   counters:    sum
///   gauges:      max (peaks — arena/RSS high-water marks — are the gauges
///                 workers report; last-write-wins has no meaning across
///                 concurrent domains)
///   histograms:  per-bucket sum when bounds match; a histogram whose bounds
///                 differ from the name's first (in sorted domain order)
///                 occurrence is dropped, so shape conflicts cannot make the
///                 output order-dependent.
/// The growth engine folds its run-level parts (preamble, summed unit
/// tallies, tail) through it, so the merged snapshot is byte-identical for
/// any thread count and completion order.
MetricsSnapshot MergeDomainSnapshots(std::vector<DomainSnapshot> domains);

/// Renders a postmortem JSON document for a domain: its id, an outcome tag
/// ("truncated", "fault", "cancelled", ...), free-form detail, the path of
/// the checkpoint written on the same exit (empty when checkpointing was
/// off), the flight recorder's surviving events (timestamps in microseconds
/// relative to the oldest event), and the domain's full metrics snapshot.
/// The obs layer cannot write files (io sits above it); callers persist the
/// string with the atomic writer — see the `tpm mine` postmortem path in
/// tools/cli.cc.
std::string PostmortemJson(const StatsDomain& domain, const std::string& outcome,
                           const std::string& detail,
                           const std::string& checkpoint_path = std::string());

}  // namespace obs
}  // namespace tpm
