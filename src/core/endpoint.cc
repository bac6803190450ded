#include "core/endpoint.h"

#include <algorithm>

#include "util/macros.h"

namespace tpm {

EndpointSequence EndpointSequence::FromEventSequence(const EventSequence& seq) {
  struct Raw {
    TimeT time;
    EndpointCode code;
    uint32_t interval_index;
  };
  std::vector<Raw> raw;
  raw.reserve(seq.size() * 2);
  for (uint32_t k = 0; k < seq.size(); ++k) {
    const Interval& iv = seq[k];
    raw.push_back({iv.start, MakeStart(iv.event), k});
    raw.push_back({iv.finish, MakeFinish(iv.event), k});
  }
  std::sort(raw.begin(), raw.end(), [](const Raw& a, const Raw& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.code < b.code;
  });

  // One slice per distinct time: sized exactly, so the slice arrays hold no
  // growth slack (the representation's bytes are charged by capacity).
  uint32_t num_slices = 0;
  for (uint32_t i = 0; i < raw.size(); ++i) {
    if (i == 0 || raw[i].time != raw[i - 1].time) ++num_slices;
  }

  EndpointSequence out;
  out.items_.reserve(raw.size());
  out.item_slice_.reserve(raw.size());
  out.partner_.assign(raw.size(), 0);
  out.slice_offsets_.reserve(num_slices + 1);
  out.slice_times_.reserve(num_slices);

  // Map interval -> item index of its start, to wire partners.
  std::vector<uint32_t> start_item(seq.size(), 0);

  for (uint32_t i = 0; i < raw.size(); ++i) {
    const Raw& r = raw[i];
    if (out.slice_times_.empty() || out.slice_times_.back() != r.time) {
      out.slice_offsets_.push_back(i);
      out.slice_times_.push_back(r.time);
    }
    out.items_.push_back(r.code);
    out.item_slice_.push_back(static_cast<uint32_t>(out.slice_times_.size()) - 1);
    if (!IsFinish(r.code)) {
      start_item[r.interval_index] = i;
    } else {
      const uint32_t s = start_item[r.interval_index];
      out.partner_[s] = i;
      out.partner_[i] = s;
    }
  }
  out.slice_offsets_.push_back(static_cast<uint32_t>(raw.size()));
  return out;
}

uint32_t EndpointSequence::FindInSlice(uint32_t s, EndpointCode code) const {
  const uint32_t b = slice_begin(s);
  const uint32_t e = slice_end(s);
  if (e - b < 8) {
    for (uint32_t i = b; i < e; ++i) {
      if (items_[i] == code) return i;
      if (items_[i] > code) return kNotFoundItem;
    }
    return kNotFoundItem;
  }
  auto first = items_.begin() + b;
  auto last = items_.begin() + e;
  auto it = std::lower_bound(first, last, code);
  if (it != last && *it == code) {
    return static_cast<uint32_t>(it - items_.begin());
  }
  return kNotFoundItem;
}

size_t EndpointSequence::MemoryBytes() const {
  return items_.capacity() * sizeof(EndpointCode) +
         slice_offsets_.capacity() * sizeof(uint32_t) +
         item_slice_.capacity() * sizeof(uint32_t) +
         partner_.capacity() * sizeof(uint32_t) +
         slice_times_.capacity() * sizeof(TimeT);
}

std::string EndpointSequence::ToString(const Dictionary& dict) const {
  std::string out = "<";
  for (uint32_t s = 0; s < num_slices(); ++s) {
    out += "{";
    for (uint32_t i = slice_begin(s); i < slice_end(s); ++i) {
      if (i > slice_begin(s)) out += " ";
      out += EndpointToString(items_[i], dict);
    }
    out += "}";
  }
  out += ">";
  return out;
}

std::string EndpointToString(EndpointCode code, const Dictionary& dict) {
  return dict.Name(EndpointEvent(code)) + (IsFinish(code) ? "-" : "+");
}

EndpointDatabase EndpointDatabase::FromDatabase(const IntervalDatabase& db) {
  EndpointDatabase out;
  out.sequences_.reserve(db.size());
  for (const EventSequence& seq : db.sequences()) {
    out.sequences_.push_back(EndpointSequence::FromEventSequence(seq));
  }
  out.dict_ = &db.dict();
  out.num_symbols_ = db.dict().size();
  return out;
}

size_t EndpointDatabase::MemoryBytes() const {
  size_t total = sequences_.capacity() * sizeof(EndpointSequence);
  for (const EndpointSequence& s : sequences_) total += s.MemoryBytes();
  return total;
}

}  // namespace tpm
