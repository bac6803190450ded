#include "miner/cooccurrence.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace tpm {

namespace {

// Ranges 1.. of pass 2 count pairs into partial tables of their own; with
// more frequent symbols than this bound allows, pass 2 uses fewer ranges.
constexpr size_t kMaxPartialTableBytes = size_t{8} << 20;

}  // namespace

CooccurrenceTable CooccurrenceTable::Build(const IntervalDatabase& db,
                                           SupportCount min_support,
                                           uint32_t threads) {
  TPM_TRACE_SPAN("cooc.build");
  const std::vector<EventSequence>& seqs = db.sequences();
  CooccurrenceTable t;
  t.min_support_ = min_support;

  // Pass 1, by sequence range: per-symbol sequence frequencies, summed.
  std::vector<std::vector<SupportCount>> support(NumRanges(seqs.size(), threads));
  ForEachRange(seqs.size(), threads, [&](uint32_t k, IndexRange r) {
    TPM_TRACE_SPAN("cooc.range");
    std::vector<SupportCount>& count = support[k];
    count.assign(db.dict().size(), 0);
    std::vector<EventId> present;
    for (size_t q = r.begin; q < r.end; ++q) {
      present.clear();
      for (const Interval& iv : seqs[q].intervals()) present.push_back(iv.event);
      std::sort(present.begin(), present.end());
      present.erase(std::unique(present.begin(), present.end()), present.end());
      for (EventId e : present) {
        if (e < count.size()) ++count[e];
      }
    }
  });
  t.symbol_support_ = std::move(support[0]);
  for (size_t k = 1; k < support.size(); ++k) {
    for (EventId e = 0; e < t.symbol_support_.size(); ++e) {
      t.symbol_support_[e] += support[k][e];
    }
  }

  // Dense ids for frequent symbols.
  t.dense_id_.assign(db.dict().size(), kNone);
  for (EventId e = 0; e < t.symbol_support_.size(); ++e) {
    if (t.symbol_support_[e] >= min_support) t.dense_id_[e] = t.num_frequent_++;
  }
  obs::MetricsRegistry::Global()
      .GetGauge("cooc.frequent_symbols")
      ->Set(t.num_frequent_);
  if (t.num_frequent_ == 0) return t;

  // Pass 2, by sequence range: pairwise counts among frequent symbols (upper
  // triangle mirrored). Range 0 counts into the table, the others into
  // partial tables summed into it.
  const size_t cells = static_cast<size_t>(t.num_frequent_) * t.num_frequent_;
  const size_t max_partials = kMaxPartialTableBytes / (cells * sizeof(SupportCount));
  const uint32_t pair_threads =
      static_cast<uint32_t>(std::min<size_t>(std::max<uint32_t>(threads, 1),
                                             max_partials + 1));
  t.pair_counts_.assign(cells, 0);
  std::vector<std::vector<SupportCount>> partial(NumRanges(seqs.size(), pair_threads));
  ForEachRange(seqs.size(), pair_threads, [&](uint32_t k, IndexRange r) {
    TPM_TRACE_SPAN("cooc.range");
    std::vector<SupportCount>& counts = k == 0 ? t.pair_counts_ : partial[k];
    counts.resize(cells, 0);
    std::vector<uint32_t> dense;
    for (size_t q = r.begin; q < r.end; ++q) {
      dense.clear();
      for (const Interval& iv : seqs[q].intervals()) {
        const uint32_t d = t.dense_id_[iv.event];
        if (d != kNone) dense.push_back(d);
      }
      std::sort(dense.begin(), dense.end());
      dense.erase(std::unique(dense.begin(), dense.end()), dense.end());
      for (size_t i = 0; i < dense.size(); ++i) {
        for (size_t j = i; j < dense.size(); ++j) {
          ++counts[static_cast<size_t>(dense[i]) * t.num_frequent_ + dense[j]];
        }
      }
    }
  });
  for (size_t k = 1; k < partial.size(); ++k) {
    for (size_t c = 0; c < cells; ++c) t.pair_counts_[c] += partial[k][c];
  }
  return t;
}

SupportCount CooccurrenceTable::PairSupport(EventId a, EventId b) const {
  if (a >= dense_id_.size() || b >= dense_id_.size()) return 0;
  uint32_t da = dense_id_[a];
  uint32_t db = dense_id_[b];
  if (da == kNone || db == kNone) return 0;
  if (da > db) std::swap(da, db);
  return pair_counts_[static_cast<size_t>(da) * num_frequent_ + db];
}

size_t CooccurrenceTable::MemoryBytes() const {
  return symbol_support_.capacity() * sizeof(SupportCount) +
         dense_id_.capacity() * sizeof(uint32_t) +
         pair_counts_.capacity() * sizeof(SupportCount);
}

}  // namespace tpm
