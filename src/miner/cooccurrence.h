// Symbol frequency and pairwise co-occurrence counts (pair-pruning substrate).

#pragma once


#include <cstdint>
#include <vector>

#include "core/database.h"
#include "core/types.h"

namespace tpm {

/// \brief Per-symbol sequence frequencies plus, for the frequent symbols, a
/// dense pairwise co-occurrence count matrix.
///
/// Pair pruning (DESIGN.md §2.1): a pattern containing symbol `a` can never
/// grow into a frequent pattern that also contains `b` when fewer than minsup
/// sequences contain both — so such extensions are pruned before counting.
class CooccurrenceTable {
 public:
  /// Builds from the database. Only pairs of symbols individually frequent at
  /// `min_support` are tabulated (others can never survive pair checks).
  /// Contiguous sequence ranges count on up to `threads` workers, and their
  /// counts are summed: the table is the same for every `threads`.
  static CooccurrenceTable Build(const IntervalDatabase& db,
                                 SupportCount min_support, uint32_t threads = 1);

  /// Sequence frequency of `e` (0 for unseen symbols).
  SupportCount SymbolSupport(EventId e) const {
    return e < symbol_support_.size() ? symbol_support_[e] : 0;
  }

  /// True iff at least min_support sequences contain `e`.
  bool IsFrequentSymbol(EventId e) const {
    return SymbolSupport(e) >= min_support_;
  }

  /// Number of sequences containing both `a` and `b` (a == b allowed).
  /// Only meaningful when both symbols are frequent; returns 0 otherwise.
  SupportCount PairSupport(EventId a, EventId b) const;

  /// True iff the pair (a, b) co-occurs in at least min_support sequences.
  bool IsFrequentPair(EventId a, EventId b) const {
    return PairSupport(a, b) >= min_support_;
  }

  SupportCount min_support() const { return min_support_; }

  /// Bytes used by the table (for memory accounting).
  size_t MemoryBytes() const;

 private:
  SupportCount min_support_ = 0;
  std::vector<SupportCount> symbol_support_;  // indexed by EventId
  std::vector<uint32_t> dense_id_;            // EventId -> dense id or kNone
  uint32_t num_frequent_ = 0;
  std::vector<SupportCount> pair_counts_;     // num_frequent^2, row-major

  static constexpr uint32_t kNone = ~0u;
};

}  // namespace tpm

