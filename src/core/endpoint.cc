#include "core/endpoint.h"

#include <algorithm>
#include <limits>

namespace tpm {

EndpointDatabase EndpointDatabase::FromSequences(
    std::span<const EventSequence> seqs, size_t num_symbols) {
  size_t total_items = 0;
  for (const EventSequence& seq : seqs) total_items += 2 * seq.size();
  // Item offsets are database-wide uint32_t values.
  TPM_CHECK(total_items < std::numeric_limits<uint32_t>::max());

  EndpointDatabase out;
  out.num_symbols_ = num_symbols;
  out.items_.resize(total_items);
  out.item_slice_.resize(total_items);
  out.partner_.resize(total_items);
  // A slice holds at least one item; the slack is trimmed below.
  out.slice_items_.reserve(total_items + 1);
  out.slice_times_.reserve(total_items);
  out.seq_items_.reserve(seqs.size() + 1);
  out.seq_slices_.reserve(seqs.size() + 1);

  struct Raw {
    TimeT time;
    EndpointCode code;
    uint32_t interval_index;
  };
  std::vector<Raw> raw;
  std::vector<uint32_t> start_item;  // interval -> local item of its start
  uint32_t base = 0;
  for (const EventSequence& seq : seqs) {
    raw.clear();
    for (uint32_t k = 0; k < seq.size(); ++k) {
      const Interval& iv = seq[k];
      raw.push_back({iv.start, MakeStart(iv.event), k});
      raw.push_back({iv.finish, MakeFinish(iv.event), k});
    }
    std::sort(raw.begin(), raw.end(), [](const Raw& a, const Raw& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.code < b.code;
    });
    start_item.resize(seq.size());
    const size_t first_slice = out.slice_times_.size();
    for (uint32_t i = 0; i < raw.size(); ++i) {
      const Raw& r = raw[i];
      if (i == 0 || raw[i - 1].time != r.time) {
        out.slice_items_.push_back(base + i);
        out.slice_times_.push_back(r.time);
      }
      out.items_[base + i] = r.code;
      out.item_slice_[base + i] =
          static_cast<uint32_t>(out.slice_times_.size() - 1 - first_slice);
      if (!IsFinish(r.code)) {
        start_item[r.interval_index] = i;
      } else {
        const uint32_t s = start_item[r.interval_index];
        out.partner_[base + s] = i;
        out.partner_[base + i] = s;
      }
    }
    base += static_cast<uint32_t>(raw.size());
    out.seq_items_.push_back(base);
    out.seq_slices_.push_back(static_cast<uint32_t>(out.slice_times_.size()));
  }
  out.slice_items_.push_back(base);
  out.slice_items_.shrink_to_fit();
  out.slice_times_.shrink_to_fit();
  return out;
}

size_t EndpointDatabase::MemoryBytes() const {
  return items_.size() * sizeof(EndpointCode) +
         (item_slice_.size() + partner_.size() + slice_items_.size() +
          seq_items_.size() + seq_slices_.size()) *
             sizeof(uint32_t) +
         slice_times_.size() * sizeof(TimeT);
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
