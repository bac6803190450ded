// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// Writes are lock-free relaxed atomics, safe from any thread. No charge site
// is on a per-node mining path (the miners' per-node counts go to a plain
// SearchTally, miner/miner_metrics.h, converted at run end), so each metric
// is a single atomic cell. Scraping reads the cells under the registry
// mutex into an immutable MetricsSnapshot, which the exporters
// (ToString / ToJson / ToPrometheus, see exporters.cc) render.
//
// Compile with -DTPM_OBS_DISABLED to stub out every write with an inline
// no-op; snapshots then come back empty but all call sites still compile.
//
// Usage:
//   obs::Counter* hits =
//       obs::MetricsRegistry::Global().GetCounter("prune.pair.hits");
//   hits->Increment();           // lock-free, safe from any thread

#pragma once


#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/sync.h"

namespace tpm {
namespace obs {

// ---------------------------------------------------------------------------
// Snapshot types — always available, also under TPM_OBS_DISABLED.
// ---------------------------------------------------------------------------

struct CounterSample {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  int64_t value = 0;
};

/// One histogram with inclusive upper bounds; counts has bounds.size() + 1
/// entries, the last being the overflow (+Inf) bucket. Counts are
/// per-bucket (non-cumulative); the Prometheus exporter cumulates them.
struct HistogramSample {
  std::string name;
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;  ///< total observations
  uint64_t sum = 0;    ///< sum of observed values

  /// Observations in the bucket whose upper bound is `bound` (0 if absent).
  uint64_t BucketCount(uint64_t bound) const;
};

/// Point-in-time copy of every metric, sorted by name within each kind.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  const CounterSample* FindCounter(const std::string& name) const;
  const GaugeSample* FindGauge(const std::string& name) const;
  const HistogramSample* FindHistogram(const std::string& name) const;

  /// Value of a counter, 0 when absent. Convenience for tests/benches.
  uint64_t CounterValue(const std::string& name) const;

  /// Per-run attribution: returns this snapshot minus `start` (counters and
  /// histogram buckets subtract; gauges keep their end value). Metrics
  /// missing from `start` are returned whole.
  MetricsSnapshot Since(const MetricsSnapshot& start) const;

  /// True when no metric carries a nonzero value.
  bool Empty() const;

  // Exporters (exporters.cc).
  std::string ToString() const;      ///< aligned human-readable table
  std::string ToJson() const;        ///< {"counters":{...},"gauges":...}
  std::string ToPrometheus() const;  ///< text exposition format, tpm_ prefix
};

/// Bucket helper: {start, start*factor, start*factor^2, ...}, `count` bounds.
std::vector<uint64_t> ExponentialBounds(uint64_t start, double factor,
                                        size_t count);

/// Bucket helper: {start, start+step, ...}, `count` bounds.
std::vector<uint64_t> LinearBounds(uint64_t start, uint64_t step, size_t count);

/// Folds snapshots into one, in the given order, with metrics sorted by
/// name:
///   counters:    sum
///   gauges:      max (the gauges a run reports are peaks)
///   histograms:  per-bucket sum when bounds match; a histogram whose bounds
///                 differ from the name's first occurrence is dropped.
/// The growth engine folds a run's parts (preamble, summed unit tallies,
/// tail) through it in a fixed order.
MetricsSnapshot MergeSnapshots(const std::vector<MetricsSnapshot>& parts);

// ---------------------------------------------------------------------------
// Live metric handles
// ---------------------------------------------------------------------------

#ifndef TPM_OBS_DISABLED

/// Monotonically increasing count. Writes are lock-free. Obtain instances
/// from a MetricsRegistry; metrics are immovable (they contain atomics).
class Counter {
 public:
  Counter() = default;

  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins signed value (sizes, configuration echoes).
class Gauge {
 public:
  Gauge() = default;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram over non-negative integer observations. A value v
/// lands in the first bucket with bound >= v; larger values land in the
/// implicit overflow bucket. Writes are lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<uint64_t> bounds);

  void Observe(uint64_t v);

  /// Adds pre-aggregated bucket counts (MergeSnapshot, SearchTally); no-op
  /// unless `bounds` matches this histogram's shape exactly.
  void MergeCounts(const std::vector<uint64_t>& bounds,
                   const std::vector<uint64_t>& counts, uint64_t sum);

 private:
  friend class MetricsRegistry;
  void Reset();

  std::vector<uint64_t> bounds_;
  std::vector<std::atomic<uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> sum_{0};
};

/// Owner of all metrics. Handles returned by Get* are valid for the
/// registry's lifetime; Get* with a name seen before returns the same
/// handle. Registration takes a mutex — cache handles off the hot path.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation point uses.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` must be non-empty and strictly increasing; later calls with
  /// the same name ignore `bounds` and return the existing histogram.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<uint64_t> bounds);

  /// Reads every metric into a snapshot sorted by name.
  MetricsSnapshot Snapshot() const;

  /// Folds a snapshot (a run's merged metrics, see growth_engine.h) into
  /// this registry: counters add their value, nonzero gauges Set
  /// (last-write-wins, like any gauge write), histograms add their bucket
  /// counts when the bounds match (mismatched bounds are dropped — the name
  /// already exists here with a different shape, so the data is
  /// incomparable). Registers metrics missing from this registry.
  void MergeSnapshot(const MetricsSnapshot& delta);

  /// Zeroes every cell (metrics stay registered). Intended for tests.
  void Reset();

 private:
  mutable Mutex mu_;
  // Deques keep handle addresses stable across registration; the mutex
  // guards the containers (registration / snapshot), never the metric cells
  // themselves — those are written lock-free.
  std::deque<std::pair<std::string, Counter>> counters_ TPM_GUARDED_BY(mu_);
  std::deque<std::pair<std::string, Gauge>> gauges_ TPM_GUARDED_BY(mu_);
  std::deque<std::pair<std::string, Histogram>> histograms_
      TPM_GUARDED_BY(mu_);
};

#else  // TPM_OBS_DISABLED: inline no-op stubs, zero hot-path cost.
//
// Concurrency audit (Tier D): the stubs are stateless — every method is an
// empty body or a constant return, and the shared counter_/gauge_/histogram_
// members are never written through — so handing one stub instance to every
// caller is race-free without locks or atomics.

class Counter {
 public:
  void Increment(uint64_t = 1) {}
  uint64_t Value() const { return 0; }
};

class Gauge {
 public:
  void Set(int64_t) {}
  int64_t Value() const { return 0; }
};

class Histogram {
 public:
  void Observe(uint64_t) {}
  void MergeCounts(const std::vector<uint64_t>&, const std::vector<uint64_t>&,
                   uint64_t) {}
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string&) { return &counter_; }
  Gauge* GetGauge(const std::string&) { return &gauge_; }
  Histogram* GetHistogram(const std::string&, std::vector<uint64_t>) {
    return &histogram_;
  }
  MetricsSnapshot Snapshot() const { return {}; }
  void MergeSnapshot(const MetricsSnapshot&) {}
  void Reset() {}

 private:
  Counter counter_;
  Gauge gauge_;
  Histogram histogram_;
};

#endif  // TPM_OBS_DISABLED

}  // namespace obs
}  // namespace tpm

