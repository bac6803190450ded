#include "core/coincidence.h"

#include <algorithm>
#include <limits>

#include "obs/trace.h"
#include "util/parallel.h"

namespace tpm {

namespace {

// Copies `staged` to `out` and frees it.
template <typename T>
void MoveInto(std::vector<T>* staged, T* out) {
  std::copy(staged->begin(), staged->end(), out);
  std::vector<T>().swap(*staged);
}

}  // namespace

CoincidenceDatabase CoincidenceDatabase::FromSequences(
    std::span<const EventSequence> seqs, size_t num_symbols, uint32_t threads) {
  CoincidenceDatabase out;
  out.num_symbols_ = num_symbols;
  out.seq_items_.resize(seqs.size() + 1);
  out.seq_segments_.resize(seqs.size() + 1);

  // Pass 1, by range: stage the range's items and segments. seq_items_ and
  // seq_segments_ hold range-local offsets, and the staged seg_items
  // range-local items, until pass 2.
  struct Staged {
    std::vector<EventId> items;
    std::vector<uint32_t> item_segment;
    std::vector<uint32_t> alive_until;
    std::vector<uint32_t> seg_items;
    std::vector<TimeT> seg_start_times;
    std::vector<TimeT> seg_end_times;
  };
  std::vector<Staged> staged(NumRanges(seqs.size(), threads));
  ForEachRange(seqs.size(), threads, [&](uint32_t k, IndexRange r) {
    TPM_TRACE_SPAN("coincidence.repr.range");
    Staged& st = staged[k];
    // A candidate segment is either the zero-length [t_j, t_j] (only when a
    // point event occurs at t_j) or the open (t_j, t_{j+1}).
    struct Candidate {
      TimeT start, end;
    };
    struct ItemTmp {
      uint32_t cand;
      EventId event;
      uint32_t last_cand;  // last candidate the item's interval is alive on
    };
    std::vector<TimeT> times;
    std::vector<uint8_t> has_point;
    std::vector<uint32_t> first_cand;  // time index -> its first candidate
    std::vector<Candidate> cands;
    std::vector<ItemTmp> tmp;
    std::vector<uint32_t> kept;  // candidate -> local segment, once kept
    for (size_t q = r.begin; q < r.end; ++q) {
      const EventSequence& seq = seqs[q];
      // 1. Distinct endpoint times, and which times host point events.
      times.clear();
      for (const Interval& iv : seq.intervals()) {
        times.push_back(iv.start);
        times.push_back(iv.finish);
      }
      std::sort(times.begin(), times.end());
      times.erase(std::unique(times.begin(), times.end()), times.end());
      auto time_index = [&times](TimeT t) {
        return static_cast<uint32_t>(
            std::lower_bound(times.begin(), times.end(), t) - times.begin());
      };
      has_point.assign(times.size(), 0);
      for (const Interval& iv : seq.intervals()) {
        if (iv.IsPoint()) has_point[time_index(iv.start)] = 1;
      }

      // 2. Candidate segments in temporal order.
      first_cand.resize(times.size());
      cands.clear();
      for (uint32_t j = 0; j < times.size(); ++j) {
        first_cand[j] = static_cast<uint32_t>(cands.size());
        if (has_point[j] != 0) cands.push_back({times[j], times[j]});
        if (j + 1 < times.size()) cands.push_back({times[j], times[j + 1]});
      }

      // 3. Alive sets. An interval [t_si, t_fi] is alive on every candidate
      //    from the first at t_si up to the open ones before t_fi, plus the
      //    zero-length one at t_fi: one contiguous candidate range.
      tmp.clear();
      for (const Interval& iv : seq.intervals()) {
        const uint32_t fi = time_index(iv.finish);
        const uint32_t end = first_cand[fi] + has_point[fi];
        for (uint32_t c = first_cand[time_index(iv.start)]; c < end; ++c) {
          tmp.push_back({c, iv.event, end - 1});
        }
      }
      std::sort(tmp.begin(), tmp.end(), [](const ItemTmp& a, const ItemTmp& b) {
        if (a.cand != b.cand) return a.cand < b.cand;
        return a.event < b.event;
      });

      // 4. Emit non-empty candidates as segments, renumbered densely. Every
      //    candidate in an interval's range holds that interval's item, so
      //    its last candidate is kept.
      const uint32_t item_base = static_cast<uint32_t>(st.items.size());
      const uint32_t seg_base = static_cast<uint32_t>(st.seg_start_times.size());
      out.seq_items_[q] = item_base;
      out.seq_segments_[q] = seg_base;
      kept.resize(cands.size());
      for (uint32_t j = 0; j < tmp.size(); ++j) {
        const ItemTmp& it = tmp[j];
        if (j == 0 || tmp[j - 1].cand != it.cand) {
          kept[it.cand] = static_cast<uint32_t>(st.seg_start_times.size()) - seg_base;
          st.seg_items.push_back(item_base + j);
          st.seg_start_times.push_back(cands[it.cand].start);
          st.seg_end_times.push_back(cands[it.cand].end);
        }
        st.items.push_back(it.event);
        st.item_segment.push_back(kept[it.cand]);
      }
      for (const ItemTmp& it : tmp) st.alive_until.push_back(kept[it.last_cand]);
      // Item offsets are database-wide uint32_t values.
      TPM_CHECK(st.items.size() < std::numeric_limits<uint32_t>::max());
    }
  });

  // Pass 2, by the same ranges: copy the staged arrays into the exact-size
  // arrays at their prefix-summed offsets, rebasing the offsets.
  std::vector<size_t> item_base(staged.size() + 1, 0);
  std::vector<size_t> seg_base(staged.size() + 1, 0);
  for (size_t k = 0; k < staged.size(); ++k) {
    item_base[k + 1] = item_base[k] + staged[k].items.size();
    seg_base[k + 1] = seg_base[k] + staged[k].seg_start_times.size();
  }
  out.num_items_ = item_base.back();
  out.num_segments_ = seg_base.back();
  TPM_CHECK(out.num_items_ < std::numeric_limits<uint32_t>::max());
  out.items_ = std::make_unique_for_overwrite<EventId[]>(out.num_items_);
  out.item_segment_ = std::make_unique_for_overwrite<uint32_t[]>(out.num_items_);
  out.alive_until_ = std::make_unique_for_overwrite<uint32_t[]>(out.num_items_);
  out.seg_items_ = std::make_unique_for_overwrite<uint32_t[]>(out.num_segments_ + 1);
  out.seg_start_times_ = std::make_unique_for_overwrite<TimeT[]>(out.num_segments_);
  out.seg_end_times_ = std::make_unique_for_overwrite<TimeT[]>(out.num_segments_);
  // Each staged array is freed once copied, so at most one array is held
  // twice at a time.
  ForEachRange(seqs.size(), threads, [&](uint32_t k, IndexRange r) {
    TPM_TRACE_SPAN("coincidence.repr.range");
    Staged& st = staged[k];
    const size_t ib = item_base[k];
    const size_t sb = seg_base[k];
    MoveInto(&st.items, out.items_.get() + ib);
    MoveInto(&st.item_segment, out.item_segment_.get() + ib);
    MoveInto(&st.alive_until, out.alive_until_.get() + ib);
    for (uint32_t& first_item : st.seg_items) first_item += static_cast<uint32_t>(ib);
    MoveInto(&st.seg_items, out.seg_items_.get() + sb);
    MoveInto(&st.seg_start_times, out.seg_start_times_.get() + sb);
    MoveInto(&st.seg_end_times, out.seg_end_times_.get() + sb);
    for (size_t q = r.begin; q < r.end; ++q) {
      out.seq_items_[q] += static_cast<uint32_t>(ib);
      out.seq_segments_[q] += static_cast<uint32_t>(sb);
    }
  });
  out.seg_items_[out.num_segments_] = static_cast<uint32_t>(out.num_items_);
  out.seq_items_.back() = static_cast<uint32_t>(out.num_items_);
  out.seq_segments_.back() = static_cast<uint32_t>(out.num_segments_);
  return out;
}

size_t CoincidenceDatabase::MemoryBytes() const {
  return (3 * num_items_ + num_segments_ + 1 + seq_items_.size() +
          seq_segments_.size()) *
             sizeof(uint32_t) +
         2 * num_segments_ * sizeof(TimeT);
}

std::string CoincidenceSequence::ToString(const Dictionary& dict) const {
  std::string out = "<";
  for (uint32_t s = 0; s < num_segments(); ++s) {
    out += "(";
    for (uint32_t i = seg_begin(s); i < seg_end(s); ++i) {
      if (i > seg_begin(s)) out += " ";
      out += dict.Name(item(i));
    }
    out += ")";
  }
  out += ">";
  return out;
}

}  // namespace tpm
