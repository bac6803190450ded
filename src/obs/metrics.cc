#include "obs/metrics.h"

#include <algorithm>
#include <map>

namespace tpm {
namespace obs {

// ---------------------------------------------------------------------------
// Snapshot helpers (compiled in both modes)
// ---------------------------------------------------------------------------

namespace {

template <typename SampleT>
const SampleT* FindByName(const std::vector<SampleT>& samples,
                          const std::string& name) {
  for (const SampleT& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

uint64_t HistogramSample::BucketCount(uint64_t bound) const {
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (bounds[i] == bound) return counts[i];
  }
  return 0;
}

const CounterSample* MetricsSnapshot::FindCounter(const std::string& name) const {
  return FindByName(counters, name);
}

const GaugeSample* MetricsSnapshot::FindGauge(const std::string& name) const {
  return FindByName(gauges, name);
}

const HistogramSample* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  return FindByName(histograms, name);
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  const CounterSample* c = FindCounter(name);
  return c == nullptr ? 0 : c->value;
}

MetricsSnapshot MetricsSnapshot::Since(const MetricsSnapshot& start) const {
  MetricsSnapshot delta;
  delta.counters.reserve(counters.size());
  for (const CounterSample& c : counters) {
    const CounterSample* base = start.FindCounter(c.name);
    const uint64_t before = base == nullptr ? 0 : base->value;
    delta.counters.push_back({c.name, c.value >= before ? c.value - before : 0});
  }
  delta.gauges = gauges;  // gauges report their end value
  delta.histograms.reserve(histograms.size());
  for (const HistogramSample& h : histograms) {
    HistogramSample d = h;
    const HistogramSample* base = start.FindHistogram(h.name);
    if (base != nullptr && base->bounds == h.bounds) {
      for (size_t i = 0; i < d.counts.size(); ++i) {
        d.counts[i] -= std::min(d.counts[i], base->counts[i]);
      }
      d.count -= std::min(d.count, base->count);
      d.sum -= std::min(d.sum, base->sum);
    }
    delta.histograms.push_back(std::move(d));
  }
  return delta;
}

bool MetricsSnapshot::Empty() const {
  for (const CounterSample& c : counters) {
    if (c.value != 0) return false;
  }
  for (const GaugeSample& g : gauges) {
    if (g.value != 0) return false;
  }
  for (const HistogramSample& h : histograms) {
    if (h.count != 0) return false;
  }
  return true;
}

std::vector<uint64_t> ExponentialBounds(uint64_t start, double factor,
                                        size_t count) {
  std::vector<uint64_t> bounds;
  bounds.reserve(count);
  double v = static_cast<double>(start);
  uint64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t b = static_cast<uint64_t>(v);
    if (b <= prev) b = prev + 1;  // keep strictly increasing
    bounds.push_back(b);
    prev = b;
    v *= factor;
  }
  return bounds;
}

std::vector<uint64_t> LinearBounds(uint64_t start, uint64_t step, size_t count) {
  std::vector<uint64_t> bounds;
  bounds.reserve(count);
  for (size_t i = 0; i < count; ++i) bounds.push_back(start + i * step);
  return bounds;
}

MetricsSnapshot MergeSnapshots(const std::vector<MetricsSnapshot>& parts) {
  // std::map keeps the metric-name ordering the snapshot contract requires.
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSample> histograms;
  for (const MetricsSnapshot& part : parts) {
    for (const CounterSample& c : part.counters) counters[c.name] += c.value;
    for (const GaugeSample& g : part.gauges) {
      auto [it, inserted] = gauges.emplace(g.name, g.value);
      if (!inserted) it->second = std::max(it->second, g.value);
    }
    for (const HistogramSample& h : part.histograms) {
      auto [it, inserted] = histograms.emplace(h.name, h);
      if (inserted) continue;
      HistogramSample& acc = it->second;
      if (acc.bounds != h.bounds || acc.counts.size() != h.counts.size()) {
        continue;  // shape conflict: the first occurrence wins
      }
      for (size_t i = 0; i < h.counts.size(); ++i) acc.counts[i] += h.counts[i];
      acc.count += h.count;
      acc.sum += h.sum;
    }
  }
  MetricsSnapshot merged;
  merged.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) merged.counters.push_back({name, value});
  merged.gauges.reserve(gauges.size());
  for (const auto& [name, value] : gauges) merged.gauges.push_back({name, value});
  merged.histograms.reserve(histograms.size());
  for (const auto& [name, h] : histograms) merged.histograms.push_back(h);
  return merged;
}

// ---------------------------------------------------------------------------
// Live registry
// ---------------------------------------------------------------------------

#ifndef TPM_OBS_DISABLED

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

void Histogram::Observe(uint64_t v) {
  // First bucket whose (inclusive) upper bound admits v; overflow otherwise.
  const size_t b = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::MergeCounts(const std::vector<uint64_t>& bounds,
                            const std::vector<uint64_t>& counts, uint64_t sum) {
  if (bounds != bounds_ || counts.size() != counts_.size()) return;
  for (size_t i = 0; i < counts.size(); ++i) {
    counts_[i].fetch_add(counts[i], std::memory_order_relaxed);
  }
  sum_.fetch_add(sum, std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (std::atomic<uint64_t>& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  for (auto& [n, counter] : counters_) {
    if (n == name) return &counter;
  }
  counters_.emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                         std::forward_as_tuple());
  return &counters_.back().second;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  for (auto& [n, gauge] : gauges_) {
    if (n == name) return &gauge;
  }
  gauges_.emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                       std::forward_as_tuple());
  return &gauges_.back().second;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<uint64_t> bounds) {
  MutexLock lock(&mu_);
  for (auto& [n, histogram] : histograms_) {
    if (n == name) return &histogram;
  }
  histograms_.emplace_back(std::piecewise_construct,
                           std::forward_as_tuple(name),
                           std::forward_as_tuple(std::move(bounds)));
  return &histograms_.back().second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  {
    MutexLock lock(&mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, counter] : counters_) {
      snap.counters.push_back({name, counter.Value()});
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, gauge] : gauges_) {
      snap.gauges.push_back({name, gauge.Value()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, histogram] : histograms_) {
      HistogramSample h;
      h.name = name;
      h.bounds = histogram.bounds_;
      h.counts.reserve(histogram.counts_.size());
      for (const std::atomic<uint64_t>& c : histogram.counts_) {
        h.counts.push_back(c.load(std::memory_order_relaxed));
        h.count += h.counts.back();
      }
      h.sum = histogram.sum_.load(std::memory_order_relaxed);
      snap.histograms.push_back(std::move(h));
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void MetricsRegistry::MergeSnapshot(const MetricsSnapshot& delta) {
  for (const CounterSample& c : delta.counters) {
    if (c.value != 0) GetCounter(c.name)->Increment(c.value);
  }
  for (const GaugeSample& g : delta.gauges) {
    if (g.value != 0) GetGauge(g.name)->Set(g.value);
  }
  for (const HistogramSample& h : delta.histograms) {
    if (h.count == 0) continue;
    GetHistogram(h.name, h.bounds)->MergeCounts(h.bounds, h.counts, h.sum);
  }
}

void MetricsRegistry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter.Reset();
  for (auto& [name, gauge] : gauges_) gauge.Reset();
  for (auto& [name, histogram] : histograms_) histogram.Reset();
}

#else  // TPM_OBS_DISABLED

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

#endif  // TPM_OBS_DISABLED

}  // namespace obs
}  // namespace tpm
