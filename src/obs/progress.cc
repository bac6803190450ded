#include "obs/progress.h"

#include <utility>

#include "obs/stats_domain.h"
#include "util/memory.h"
#include "util/string_util.h"

namespace tpm {
namespace obs {

std::string ProgressSnapshot::ToString() const {
  std::string out = final_snapshot ? "progress(final):" : "progress:";
  if (buckets_total > 0) {
    out += StringPrintf(" %llu/%llu buckets",
                        static_cast<unsigned long long>(buckets_done),
                        static_cast<unsigned long long>(buckets_total));
  }
  out += StringPrintf(" %llu nodes (%.0f/s)  %llu patterns  %.1f MiB",
                      static_cast<unsigned long long>(nodes), nodes_per_second,
                      static_cast<unsigned long long>(patterns),
                      static_cast<double>(projected_bytes) / (1024.0 * 1024.0));
  if (peak_rss_bytes > 0) {
    out += StringPrintf("  rss %.1f MiB",
                        static_cast<double>(peak_rss_bytes) / (1024.0 * 1024.0));
  }
  out += StringPrintf("  elapsed %.1fs", elapsed_seconds);
  if (eta_seconds >= 0.0) out += StringPrintf("  eta %.1fs", eta_seconds);
  return out;
}

ProgressTracker::ProgressTracker(double interval_seconds, Sink sink,
                                 StatsDomain* domain)
    : interval_seconds_(interval_seconds), sink_(std::move(sink)) {
  if (domain != nullptr) {
    snapshots_counter_ = domain->GetCounter("progress.snapshots");
    peak_rss_gauge_ = domain->GetGauge("process.peak_rss_bytes");
  }
}

void ProgressTracker::ConfigureWorkers(uint32_t num_workers,
                                       const MemoryTracker* account) {
  slots_.reset(num_workers > 0 ? new WorkerSlot[num_workers] : nullptr);
  num_slots_ = num_workers;
  account_ = account;
}

ProgressSnapshot ProgressTracker::Build(double elapsed,
                                        bool final_snapshot) const {
  // Relaxed reads: the slots are monotone progress counters, and a slightly
  // stale value only shifts one status line, never correctness.
  uint64_t nodes = 0;
  uint64_t patterns = 0;
  uint64_t buckets_done = 0;
  for (uint32_t w = 0; w < num_slots_; ++w) {
    nodes += slots_[w].nodes.load(std::memory_order_relaxed);
    patterns += slots_[w].patterns.load(std::memory_order_relaxed);
    buckets_done += slots_[w].buckets.load(std::memory_order_relaxed);
  }
  ProgressSnapshot snap;
  snap.elapsed_seconds = elapsed;
  snap.buckets_done = buckets_done;
  snap.buckets_total = buckets_total_;
  snap.nodes = nodes;
  snap.patterns = patterns;
  snap.projected_bytes = account_ != nullptr ? account_->current_bytes() : 0;
  snap.nodes_per_second =
      elapsed > 0.0 ? static_cast<double>(nodes) / elapsed : 0.0;
  if (!final_snapshot && buckets_total_ > 0 && buckets_done > 0 &&
      buckets_done <= buckets_total_) {
    snap.eta_seconds = elapsed / static_cast<double>(buckets_done) *
                       static_cast<double>(buckets_total_ - buckets_done);
  }
  snap.peak_rss_bytes = ReadPeakRssBytes();
  snap.final_snapshot = final_snapshot;
  return snap;
}

void ProgressTracker::Emit(const ProgressSnapshot& snap) {
  ++emitted_;
  if (snapshots_counter_ != nullptr) snapshots_counter_->Increment();
  if (peak_rss_gauge_ != nullptr && snap.peak_rss_bytes > 0) {
    peak_rss_gauge_->Set(static_cast<int64_t>(snap.peak_rss_bytes));
  }
  if (sink_) sink_(snap);
}

void ProgressTracker::MaybeEmit() {
  const double elapsed = timer_.ElapsedSeconds();
  if (elapsed - last_emit_seconds_ < interval_seconds_) return;
  last_emit_seconds_ = elapsed;
  Emit(Build(elapsed, /*final_snapshot=*/false));
}

void ProgressTracker::Finish() {
  Emit(Build(timer_.ElapsedSeconds(), /*final_snapshot=*/true));
}

}  // namespace obs
}  // namespace tpm
