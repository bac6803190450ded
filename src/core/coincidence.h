// The coincidence representation (pattern type 2 substrate, CTMiner line).
//
// The timeline of a sequence is cut at every distinct endpoint time. Every
// maximal segment between consecutive cuts is labeled with the set of symbols
// whose intervals are *alive* on it; empty segments are dropped. Point events
// contribute zero-length segments at their time (ordered before the open
// segment starting at that time); an interval is alive on a zero-length
// segment [t,t] iff start <= t <= finish (closed-interval semantics).
//
// Because same-symbol intervals never intersect or touch, each (segment,
// symbol) pair is covered by exactly one interval, and an interval covers a
// *contiguous* range of segments. So two items of one symbol, in segments
// g < h, belong to one interval iff every segment g..h holds that symbol and
// each adjacent pair meets in time (seg_end_time(k) == seg_start_time(k+1)):
// the gap between two same-symbol intervals is a segment without that
// symbol, either kept or dropped as empty and then seen as a time gap. Each
// item stores the last segment its interval is alive on (`alive_until`),
// which is all a miner needs to enforce run-continuity in O(1).

#pragma once

#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/database.h"
#include "core/sequence.h"
#include "core/types.h"
#include "util/macros.h"

namespace tpm {

/// \brief The coincidence view of one sequence (flattened segments): pointers
/// into its CoincidenceDatabase plus counts. It must not outlive that store.
class CoincidenceSequence {
 public:
  /// The arrays a view reads, laid out as CoincidenceDatabase stores them:
  /// item arrays start at the sequence's first item, and `seg_items` holds
  /// num_segments + 1 database-wide item offsets (local item 0 is `item_base`).
  struct Arrays {
    const EventId* items;          // segment-major, sorted in-segment
    const uint32_t* item_segment;  // item -> local segment
    const uint32_t* alive_until;   // item -> local last segment of its interval
    const uint32_t* seg_items;     // segment -> database-wide first item
    const TimeT* seg_start_times;
    const TimeT* seg_end_times;
    uint32_t item_base, num_items, num_segments;
  };

  CoincidenceSequence() = default;
  explicit CoincidenceSequence(const Arrays& a) : a_(a) {}

  uint32_t num_segments() const { return a_.num_segments; }
  uint32_t num_items() const { return a_.num_items; }

  uint32_t seg_begin(uint32_t s) const { return a_.seg_items[Segment(s)] - a_.item_base; }
  uint32_t seg_end(uint32_t s) const {
    return a_.seg_items[Segment(s) + 1] - a_.item_base;
  }
  uint32_t seg_size(uint32_t s) const { return seg_end(s) - seg_begin(s); }

  /// Symbol of flattened item `i` (segments are sorted by symbol).
  EventId item(uint32_t i) const { return a_.items[Item(i)]; }

  /// Segment containing item `i`.
  uint32_t item_segment(uint32_t i) const { return a_.item_segment[Item(i)]; }

  /// Last segment on which item `i`'s interval is alive.
  uint32_t alive_until(uint32_t i) const { return a_.alive_until[Item(i)]; }

  /// Start time of segment `s` (== end time for zero-length segments).
  TimeT seg_start_time(uint32_t s) const { return a_.seg_start_times[Segment(s)]; }

  /// End time of segment `s`.
  TimeT seg_end_time(uint32_t s) const { return a_.seg_end_times[Segment(s)]; }

  static constexpr uint32_t kNotFoundItem = ~0u;
  /// Item index of `event` in segment `s`, or kNotFoundItem.
  uint32_t FindInSegment(uint32_t s, EventId event) const {
    return FindSorted(a_.items, seg_begin(s), seg_end(s), event);
  }

  /// Debug rendering "<(A)(A B)(B)>".
  std::string ToString(const Dictionary& dict) const;

 private:
  // Local indices, checked under TPM_DCHECK: a view never reads past its
  // own sequence into the next one's.
  uint32_t Item(uint32_t i) const { return DCheckedIndex(i, a_.num_items); }
  uint32_t Segment(uint32_t s) const { return DCheckedIndex(s, a_.num_segments); }

  Arrays a_{};
};
static_assert(std::is_trivially_copyable_v<CoincidenceSequence>);

/// \brief The coincidence representation of a whole database: per item,
/// per segment and per sequence, one database-wide array each, sized exactly.
class CoincidenceDatabase {
 public:
  /// Builds the coincidence views of `seqs`, which must each be valid,
  /// filling contiguous sequence ranges on up to `threads` workers
  /// (DESIGN.md §1.1). The arrays are the same for every `threads`.
  static CoincidenceDatabase FromSequences(std::span<const EventSequence> seqs,
                                           size_t num_symbols, uint32_t threads = 1);

  static CoincidenceDatabase FromDatabase(const IntervalDatabase& db,
                                          uint32_t threads = 1) {
    return FromSequences(db.sequences(), db.dict().size(), threads);
  }

  size_t size() const { return seq_items_.size() - 1; }

  /// The view of sequence `i`; valid while this database lives.
  CoincidenceSequence operator[](size_t i) const {
    TPM_DCHECK(i < size());
    const uint32_t item = seq_items_[i];
    const uint32_t seg = seq_segments_[i];
    return CoincidenceSequence({items_.get() + item, item_segment_.get() + item,
                                alive_until_.get() + item, seg_items_.get() + seg,
                                seg_start_times_.get() + seg,
                                seg_end_times_.get() + seg, item,
                                seq_items_[i + 1] - item, seq_segments_[i + 1] - seg});
  }

  size_t num_symbols() const { return num_symbols_; }

  /// Bytes held by the arrays (each is sized exactly).
  size_t MemoryBytes() const;

 private:
  // Per item and per segment: allocated at their exact size and left
  // uninitialized, so each page is first touched by the range that fills it.
  std::unique_ptr<EventId[]> items_;
  std::unique_ptr<uint32_t[]> item_segment_;
  std::unique_ptr<uint32_t[]> alive_until_;
  std::unique_ptr<uint32_t[]> seg_items_;  // one per segment, plus the end
  std::unique_ptr<TimeT[]> seg_start_times_;
  std::unique_ptr<TimeT[]> seg_end_times_;
  size_t num_items_ = 0;
  size_t num_segments_ = 0;
  std::vector<uint32_t> seq_items_{0};     // one per sequence, plus the end
  std::vector<uint32_t> seq_segments_{0};  // one per sequence, plus the end
  size_t num_symbols_ = 0;
};

}  // namespace tpm
