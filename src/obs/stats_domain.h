// StatsDomain: an isolated per-run observability domain.
//
// The global MetricsRegistry is the right sink for a single-run CLI process,
// but a run that shares its process with others (tests, benchmarks, a
// library caller) needs to account its search in isolation. A StatsDomain
// bundles a private MetricsRegistry (same handles, same names as the global
// taxonomy) with a FlightRecorder for postmortems; a miner charges the
// domain instead of the process-global registry:
//
//   obs::StatsDomain domain("mine");
//   options.stats_domain = &domain;            // miner charges this domain
//   ... mine ...
//   const obs::MetricsSnapshot snap = domain.Snapshot();
//
// A run has exactly one domain. Work items inside a growth run charge a
// plain SearchTally (miner/miner_metrics.h) that the run converts at
// checkpoint boundaries and at run end, and the run's merged metrics fold
// into the global registry (MetricsRegistry::MergeSnapshot).
//
// Thread-compatibility: the registry inside a domain is as thread-safe as
// the global one. The FlightRecorder is single-owner, like the run that
// drives it.

#pragma once


#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace tpm {
namespace obs {

class StatsDomain {
 public:
  /// `id` names the domain in postmortems (e.g. "mine", a request id).
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

 private:
  std::string id_;
  MetricsRegistry registry_;
  FlightRecorder recorder_;
};

/// Renders a postmortem JSON document for a domain: its id, an outcome tag
/// ("truncated", "fault", "cancelled", ...), free-form detail, the path of
/// the checkpoint written on the same exit (empty when checkpointing was
/// off), the flight recorder's surviving events (timestamps in microseconds
/// relative to the oldest event), and `metrics` — the run's merged metrics
/// when it produced a result, else the domain's own snapshot. The obs layer
/// cannot write files (io sits above it); callers persist the string with
/// the atomic writer — see the `tpm mine` postmortem path in tools/cli.cc.
std::string PostmortemJson(const StatsDomain& domain,
                           const MetricsSnapshot& metrics,
                           const std::string& outcome,
                           const std::string& detail,
                           const std::string& checkpoint_path = std::string());

}  // namespace obs
}  // namespace tpm
