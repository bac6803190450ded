#include "core/containment.h"

#include <algorithm>
#include <vector>

namespace tpm {

namespace {

// Small association list: event -> value. Patterns hold a handful of open
// symbols, so linear scans beat hash maps here.
struct OpenEntry {
  EventId event;
  uint32_t value;
};

const uint32_t* FindOpen(const std::vector<OpenEntry>& open, EventId e) {
  for (const OpenEntry& oe : open) {
    if (oe.event == e) return &oe.value;
  }
  return nullptr;
}

void EraseOpen(std::vector<OpenEntry>* open, EventId e) {
  for (size_t i = 0; i < open->size(); ++i) {
    if ((*open)[i].event == e) {
      (*open)[i] = open->back();
      open->pop_back();
      return;
    }
  }
}

// Backtracking matcher for endpoint patterns.
struct EndpointMatcher {
  const EndpointSequence seq;
  const EndpointPattern& pat;
  const TimeT max_window;
  TimeT anchor_time = 0;  // time of the first matched slice

  bool Match(uint32_t j, uint32_t min_slice, std::vector<OpenEntry>& open) {
    if (j == pat.num_slices()) return true;
    for (uint32_t i = min_slice; i < seq.num_slices(); ++i) {
      if (max_window > 0) {
        if (j == 0) {
          anchor_time = seq.slice_time(i);
        } else if (seq.slice_time(i) - anchor_time > max_window) {
          break;  // slices only get later; no match can fit the window
        }
      }
      std::vector<OpenEntry> next_open = open;
      if (TrySlice(j, i, &next_open) && Match(j + 1, i + 1, next_open)) {
        return true;
      }
    }
    return false;
  }

  // Attempts to embed pattern slice j into data slice i, updating *open
  // (event -> data item index of the required finish endpoint).
  bool TrySlice(uint32_t j, uint32_t i, std::vector<OpenEntry>* open) {
    const uint32_t b = pat.slice_begin(j);
    const uint32_t e = pat.slice_end(j);
    for (uint32_t k = b; k < e; ++k) {
      const EndpointCode c = pat.item(k);
      const EventId ev = EndpointEvent(c);
      if (!IsFinish(c)) {
        const uint32_t p = seq.FindInSlice(i, c);
        if (p == EndpointSequence::kNotFoundItem) return false;
        const bool point = (k + 1 < e && pat.item(k + 1) == PartnerCode(c));
        if (point) {
          // Point event: the data partner must live in the same slice. Data
          // slices contain at most one occurrence per code, so if both codes
          // are present they are partners.
          if (seq.item_slice(seq.partner(p)) != i) return false;
          ++k;  // consume the pattern finish
        } else {
          open->push_back({ev, seq.partner(p)});
        }
      } else {
        const uint32_t* req = FindOpen(*open, ev);
        if (req == nullptr) return false;  // invalid pattern or no match
        if (seq.item_slice(*req) != i) return false;
        EraseOpen(open, ev);
      }
    }
    return true;
  }
};

// Backtracking matcher for coincidence patterns.
struct CoincidenceMatcher {
  const CoincidenceSequence seq;
  const CoincidencePattern& pat;
  const TimeT max_window;
  TimeT anchor_time = 0;  // start time of the first matched segment

  // prev maps events of pattern coincidence j-1 to their matched item index.
  bool Match(uint32_t j, uint32_t min_seg, const std::vector<OpenEntry>& prev) {
    if (j == pat.num_coincidences()) return true;
    for (uint32_t i = min_seg; i < seq.num_segments(); ++i) {
      if (max_window > 0) {
        if (j == 0) {
          anchor_time = seq.seg_start_time(i);
        } else if (seq.seg_end_time(i) - anchor_time > max_window) {
          break;
        }
      }
      std::vector<OpenEntry> assign;
      if (TrySegment(j, i, prev, &assign) && Match(j + 1, i + 1, assign)) {
        return true;
      }
    }
    return false;
  }

  bool TrySegment(uint32_t j, uint32_t i, const std::vector<OpenEntry>& prev,
                  std::vector<OpenEntry>* assign) {
    for (uint32_t k = pat.coin_begin(j); k < pat.coin_end(j); ++k) {
      const EventId ev = pat.item(k);
      const uint32_t p = seq.FindInSegment(i, ev);
      if (p == CoincidenceSequence::kNotFoundItem) return false;
      // Run continuity: if the previous pattern coincidence also contains
      // this symbol, the matched data interval must be the same one.
      const uint32_t* prev_item = FindOpen(prev, ev);
      if (prev_item != nullptr &&
          !OneInterval(seq.item_segment(*prev_item), i, ev)) {
        return false;
      }
      assign->push_back({ev, p});
    }
    return true;
  }

  // True when `ev`'s items in segments g <= h belong to one interval: every
  // segment in between holds `ev` and each adjacent pair meets in time.
  // Derived from the segments alone, independent of alive_until.
  bool OneInterval(uint32_t g, uint32_t h, EventId ev) const {
    for (uint32_t k = g; k < h; ++k) {
      if (seq.seg_end_time(k) != seq.seg_start_time(k + 1) ||
          seq.FindInSegment(k + 1, ev) == CoincidenceSequence::kNotFoundItem) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

bool Contains(const EndpointSequence& seq, const EndpointPattern& pattern,
              TimeT max_window) {
  if (pattern.empty()) return true;
  EndpointMatcher m{seq, pattern, max_window};
  std::vector<OpenEntry> open;
  return m.Match(0, 0, open);
}

bool Contains(const CoincidenceSequence& seq, const CoincidencePattern& pattern,
              TimeT max_window) {
  if (pattern.empty()) return true;
  CoincidenceMatcher m{seq, pattern, max_window};
  return m.Match(0, 0, {});
}

SupportCount CountSupport(const EndpointDatabase& db,
                          const EndpointPattern& pattern, TimeT max_window) {
  SupportCount n = 0;
  for (size_t s = 0; s < db.size(); ++s) {
    if (Contains(db[s], pattern, max_window)) ++n;
  }
  return n;
}

SupportCount CountSupport(const CoincidenceDatabase& db,
                          const CoincidencePattern& pattern, TimeT max_window) {
  SupportCount n = 0;
  for (size_t s = 0; s < db.size(); ++s) {
    if (Contains(db[s], pattern, max_window)) ++n;
  }
  return n;
}

}  // namespace tpm
