#include "core/endpoint.h"

#include <algorithm>
#include <limits>

#include "obs/trace.h"
#include "util/parallel.h"

namespace tpm {

EndpointDatabase EndpointDatabase::FromSequences(
    std::span<const EventSequence> seqs, size_t num_symbols, uint32_t threads) {
  EndpointDatabase out;
  out.num_symbols_ = num_symbols;
  // Each sequence's first item follows from the interval counts.
  out.seq_items_.resize(seqs.size() + 1);
  out.seq_slices_.resize(seqs.size() + 1);
  size_t total_items = 0;
  for (size_t q = 0; q < seqs.size(); ++q) {
    out.seq_items_[q] = static_cast<uint32_t>(total_items);
    total_items += 2 * seqs[q].size();
  }
  // Item offsets are database-wide uint32_t values.
  TPM_CHECK(total_items < std::numeric_limits<uint32_t>::max());
  out.seq_items_.back() = static_cast<uint32_t>(total_items);
  out.num_items_ = total_items;
  out.items_ = std::make_unique_for_overwrite<EndpointCode[]>(total_items);
  out.item_slice_ = std::make_unique_for_overwrite<uint32_t[]>(total_items);
  out.partner_ = std::make_unique_for_overwrite<uint32_t[]>(total_items);

  // Pass 1, by range: fill the range's part of the item arrays and stage its
  // slices. seq_slices_ holds range-local slice offsets until pass 2.
  struct StagedSlices {
    std::vector<uint32_t> items;  // database-wide first item
    std::vector<TimeT> times;
  };
  std::vector<StagedSlices> staged(NumRanges(seqs.size(), threads));
  ForEachRange(seqs.size(), threads, [&](uint32_t k, IndexRange r) {
    TPM_TRACE_SPAN("endpoint.repr.range");
    StagedSlices& st = staged[k];
    // A slice holds at least one item; the slack goes with the staging.
    const size_t range_items = out.seq_items_[r.end] - out.seq_items_[r.begin];
    st.items.reserve(range_items);
    st.times.reserve(range_items);
    struct Raw {
      TimeT time;
      EndpointCode code;
      uint32_t interval_index;
    };
    std::vector<Raw> raw;
    std::vector<uint32_t> start_item;  // interval -> local item of its start
    for (size_t q = r.begin; q < r.end; ++q) {
      const EventSequence& seq = seqs[q];
      raw.clear();
      for (uint32_t j = 0; j < seq.size(); ++j) {
        const Interval& iv = seq[j];
        raw.push_back({iv.start, MakeStart(iv.event), j});
        raw.push_back({iv.finish, MakeFinish(iv.event), j});
      }
      std::sort(raw.begin(), raw.end(), [](const Raw& a, const Raw& b) {
        if (a.time != b.time) return a.time < b.time;
        return a.code < b.code;
      });
      start_item.resize(seq.size());
      const uint32_t base = out.seq_items_[q];
      const size_t first_slice = st.times.size();
      out.seq_slices_[q] = static_cast<uint32_t>(first_slice);
      for (uint32_t i = 0; i < raw.size(); ++i) {
        const Raw& e = raw[i];
        if (i == 0 || raw[i - 1].time != e.time) {
          st.items.push_back(base + i);
          st.times.push_back(e.time);
        }
        out.items_[base + i] = e.code;
        out.item_slice_[base + i] =
            static_cast<uint32_t>(st.times.size() - 1 - first_slice);
        if (!IsFinish(e.code)) {
          start_item[e.interval_index] = i;
        } else {
          const uint32_t s = start_item[e.interval_index];
          out.partner_[base + s] = i;
          out.partner_[base + i] = s;
        }
      }
    }
  });

  // Pass 2, by the same ranges: copy the staged slices into the exact-size
  // slice arrays at their prefix-summed offsets.
  std::vector<size_t> slice_base(staged.size() + 1, 0);
  for (size_t k = 0; k < staged.size(); ++k) {
    slice_base[k + 1] = slice_base[k] + staged[k].times.size();
  }
  out.num_slices_ = slice_base.back();
  out.slice_items_ = std::make_unique_for_overwrite<uint32_t[]>(out.num_slices_ + 1);
  out.slice_times_ = std::make_unique_for_overwrite<TimeT[]>(out.num_slices_);
  ForEachRange(seqs.size(), threads, [&](uint32_t k, IndexRange r) {
    TPM_TRACE_SPAN("endpoint.repr.range");
    StagedSlices& st = staged[k];
    std::copy(st.items.begin(), st.items.end(), out.slice_items_.get() + slice_base[k]);
    std::copy(st.times.begin(), st.times.end(), out.slice_times_.get() + slice_base[k]);
    for (size_t q = r.begin; q < r.end; ++q) {
      out.seq_slices_[q] += static_cast<uint32_t>(slice_base[k]);
    }
    st = StagedSlices{};
  });
  out.slice_items_[out.num_slices_] = static_cast<uint32_t>(total_items);
  out.seq_slices_.back() = static_cast<uint32_t>(out.num_slices_);
  return out;
}

size_t EndpointDatabase::MemoryBytes() const {
  return num_items_ * (sizeof(EndpointCode) + 2 * sizeof(uint32_t)) +
         (num_slices_ + 1 + seq_items_.size() + seq_slices_.size()) *
             sizeof(uint32_t) +
         num_slices_ * sizeof(TimeT);
}

std::string EndpointSequence::ToString(const Dictionary& dict) const {
  std::string out = "<";
  for (uint32_t s = 0; s < num_slices(); ++s) {
    out += "{";
    for (uint32_t i = slice_begin(s); i < slice_end(s); ++i) {
      if (i > slice_begin(s)) out += " ";
      out += EndpointToString(item(i), dict);
    }
    out += "}";
  }
  out += ">";
  return out;
}

std::string EndpointToString(EndpointCode code, const Dictionary& dict) {
  return dict.Name(EndpointEvent(code)) + (IsFinish(code) ? "-" : "+");
}

}  // namespace tpm
