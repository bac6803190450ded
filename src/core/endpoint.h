// The endpoint representation (pattern type 1 substrate).
//
// An interval (e, s, f) becomes a start endpoint e+ at time s and a finish
// endpoint e- at time f. All endpoints of a sequence are bucketed by time
// into *slices*; within a slice they are sorted by EndpointCode. Because
// same-symbol intervals never intersect or touch (EventSequence::Validate),
// every (time, code) pair is unique and FIFO partner pairing is unambiguous.
//
// Each item also carries a *partner index*: the item index of the other
// endpoint of the same interval. Partner indices are what let miners enforce
// partner-consistent containment in O(1) per check.

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

/// \brief The endpoint view of one sequence (flattened slice layout): pointers
/// into its EndpointDatabase plus counts. It must not outlive that store.
class EndpointSequence {
 public:
  /// The arrays a view reads, laid out as EndpointDatabase stores them: item
  /// arrays start at the sequence's first item, and `slice_items` holds
  /// num_slices + 1 database-wide item offsets (local item 0 is `item_base`).
  struct Arrays {
    const EndpointCode* items;    // slice-major, sorted in-slice
    const uint32_t* item_slice;   // item -> local slice
    const uint32_t* partner;      // item -> local partner item
    const uint32_t* slice_items;  // slice -> database-wide first item
    const TimeT* slice_times;     // slice -> time
    uint32_t item_base, num_items, num_slices;
  };

  EndpointSequence() = default;
  explicit EndpointSequence(const Arrays& a) : a_(a) {}

  /// Number of slices (distinct time points).
  uint32_t num_slices() const { return a_.num_slices; }

  /// Total number of endpoint items (2 * number of intervals).
  uint32_t num_items() const { return a_.num_items; }

  /// Item index range [begin, end) of slice `s`.
  uint32_t slice_begin(uint32_t s) const {
    return a_.slice_items[Slice(s)] - a_.item_base;
  }
  uint32_t slice_end(uint32_t s) const {
    return a_.slice_items[Slice(s) + 1] - a_.item_base;
  }
  uint32_t slice_size(uint32_t s) const { return slice_end(s) - slice_begin(s); }

  /// The endpoint code of item `i`.
  EndpointCode item(uint32_t i) const { return a_.items[Item(i)]; }

  /// The slice containing item `i`.
  uint32_t item_slice(uint32_t i) const { return a_.item_slice[Item(i)]; }

  /// Item index of the partner endpoint (other end of the same interval).
  /// For a start this is >= i (same slice for point events); for a finish
  /// it is <= i.
  uint32_t partner(uint32_t i) const { return a_.partner[Item(i)]; }

  /// Time of slice `s`.
  TimeT slice_time(uint32_t s) const { return a_.slice_times[Slice(s)]; }

  /// The item index of `code` within slice `s`, or kNotFoundItem.
  static constexpr uint32_t kNotFoundItem = ~0u;
  uint32_t FindInSlice(uint32_t s, EndpointCode code) const {
    return FindSorted(a_.items, slice_begin(s), slice_end(s), code);
  }

  /// Debug rendering "<{A+}{B+ A-}{B-}>" using the dictionary.
  std::string ToString(const Dictionary& dict) const;

 private:
  // Local indices, checked under TPM_DCHECK: a view never reads past its
  // own sequence into the next one's.
  uint32_t Item(uint32_t i) const { return DCheckedIndex(i, a_.num_items); }
  uint32_t Slice(uint32_t s) const { return DCheckedIndex(s, a_.num_slices); }

  Arrays a_{};
};
static_assert(std::is_trivially_copyable_v<EndpointSequence>);

/// Renders an endpoint code like "Fever+" / "Fever-".
std::string EndpointToString(EndpointCode code, const Dictionary& dict);

/// \brief The endpoint representation of a whole database: per item, per
/// slice and per sequence, one database-wide array each, sized exactly.
class EndpointDatabase {
 public:
  /// Builds the endpoint views of `seqs`, which must each be valid
  /// (canonical order, no same-symbol conflicts), filling contiguous
  /// sequence ranges on up to `threads` workers (DESIGN.md §1.1). The arrays
  /// are the same for every `threads`.
  static EndpointDatabase FromSequences(std::span<const EventSequence> seqs,
                                        size_t num_symbols, uint32_t threads = 1);

  /// Builds the views of all sequences. The database must Validate().
  static EndpointDatabase FromDatabase(const IntervalDatabase& db,
                                       uint32_t threads = 1) {
    return FromSequences(db.sequences(), db.dict().size(), threads);
  }

  size_t size() const { return seq_items_.size() - 1; }

  /// The view of sequence `i`; valid while this database lives.
  EndpointSequence operator[](size_t i) const {
    TPM_DCHECK(i < size());
    const uint32_t item = seq_items_[i];
    const uint32_t slice = seq_slices_[i];
    return EndpointSequence({items_.get() + item, item_slice_.get() + item,
                             partner_.get() + item, slice_items_.get() + slice,
                             slice_times_.get() + slice, item, seq_items_[i + 1] - item,
                             seq_slices_[i + 1] - slice});
  }

  /// Number of distinct symbols in the source database.
  size_t num_symbols() const { return num_symbols_; }

  /// Bytes held by the arrays (each is sized exactly).
  size_t MemoryBytes() const;

 private:
  // Per item and per slice: allocated at their exact size and left
  // uninitialized, so each page is first touched by the range that fills it.
  std::unique_ptr<EndpointCode[]> items_;
  std::unique_ptr<uint32_t[]> item_slice_;
  std::unique_ptr<uint32_t[]> partner_;
  std::unique_ptr<uint32_t[]> slice_items_;  // one per slice, plus the end
  std::unique_ptr<TimeT[]> slice_times_;
  size_t num_items_ = 0;
  size_t num_slices_ = 0;
  std::vector<uint32_t> seq_items_{0};   // one per sequence, plus the end
  std::vector<uint32_t> seq_slices_{0};  // one per sequence, plus the end
  size_t num_symbols_ = 0;
};

}  // namespace tpm
