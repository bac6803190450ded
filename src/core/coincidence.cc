#include "core/coincidence.h"

#include <algorithm>
#include <limits>

namespace tpm {

CoincidenceDatabase CoincidenceDatabase::FromSequences(
    std::span<const EventSequence> seqs, size_t num_symbols) {
  CoincidenceDatabase out;
  out.num_symbols_ = num_symbols;
  out.seq_items_.reserve(seqs.size() + 1);
  out.seq_segments_.reserve(seqs.size() + 1);

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
  for (const EventSequence& seq : seqs) {
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
    const uint32_t item_base = static_cast<uint32_t>(out.items_.size());
    const uint32_t seg_base = static_cast<uint32_t>(out.seg_start_times_.size());
    kept.resize(cands.size());
    for (uint32_t k = 0; k < tmp.size(); ++k) {
      const ItemTmp& it = tmp[k];
      if (k == 0 || tmp[k - 1].cand != it.cand) {
        kept[it.cand] = static_cast<uint32_t>(out.seg_start_times_.size()) - seg_base;
        out.seg_items_.push_back(item_base + k);
        out.seg_start_times_.push_back(cands[it.cand].start);
        out.seg_end_times_.push_back(cands[it.cand].end);
      }
      out.items_.push_back(it.event);
      out.item_segment_.push_back(kept[it.cand]);
    }
    for (const ItemTmp& it : tmp) out.alive_until_.push_back(kept[it.last_cand]);
    // Item offsets are database-wide uint32_t values.
    TPM_CHECK(out.items_.size() < std::numeric_limits<uint32_t>::max());
    out.seq_items_.push_back(static_cast<uint32_t>(out.items_.size()));
    out.seq_segments_.push_back(static_cast<uint32_t>(out.seg_start_times_.size()));
  }
  out.seg_items_.push_back(static_cast<uint32_t>(out.items_.size()));
  for (auto* v : {&out.items_, &out.item_segment_, &out.alive_until_, &out.seg_items_}) {
    v->shrink_to_fit();
  }
  out.seg_start_times_.shrink_to_fit();
  out.seg_end_times_.shrink_to_fit();
  return out;
}

size_t CoincidenceDatabase::MemoryBytes() const {
  return (items_.size() + item_segment_.size() + alive_until_.size() +
          seg_items_.size() + seq_items_.size() + seq_segments_.size()) *
             sizeof(uint32_t) +
         (seg_start_times_.size() + seg_end_times_.size()) * sizeof(TimeT);
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
