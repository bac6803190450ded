// The temporal database: a dictionary of event symbols plus sequences.

#pragma once


#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/sequence.h"
#include "core/types.h"
#include "util/result.h"

namespace tpm {

/// \brief Interns event symbol names to dense EventIds.
class Dictionary {
 public:
  /// Returns the id for `name`, interning it if new. Only a new name
  /// allocates.
  EventId Intern(std::string_view name);

  /// Returns the id for `name`, or NotFound.
  Result<EventId> Lookup(std::string_view name) const;

  /// Returns the name for `id`; ids outside the dictionary render as "#<id>"
  /// so debug paths never crash.
  const std::string& Name(EventId id) const;

  size_t size() const { return names_.size(); }

  const std::vector<std::string>& names() const { return names_; }

 private:
  // Transparent, so a std::string_view finds a key without a temporary.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, EventId, NameHash, std::equal_to<>> ids_;
};

/// Aggregate statistics of a database, used in reports and Table 1.
struct DatabaseStats {
  size_t num_sequences = 0;
  size_t num_intervals = 0;
  size_t num_symbols = 0;
  double avg_intervals_per_sequence = 0.0;
  size_t max_intervals_per_sequence = 0;
  double avg_duration = 0.0;
  TimeT min_time = 0;
  TimeT max_time = 0;

  std::string ToString() const;
};

/// \brief An interval-based temporal database: the input to every miner.
///
/// Owns a Dictionary so mined patterns can be rendered with symbolic names.
class IntervalDatabase {
 public:
  IntervalDatabase() = default;

  /// Adds a sequence (takes ownership). The sequence should be Normalize()d;
  /// AddSequence normalizes defensively.
  void AddSequence(EventSequence sequence);

  /// Validates every sequence; error messages cite the sequence index.
  Status Validate() const;

  /// Repairs same-symbol conflicts in all sequences; returns total merges.
  size_t MergeSameSymbolConflicts();

  Dictionary& dict() { return dict_; }
  const Dictionary& dict() const { return dict_; }

  const std::vector<EventSequence>& sequences() const { return sequences_; }
  size_t size() const { return sequences_.size(); }
  bool empty() const { return sequences_.empty(); }
  const EventSequence& operator[](size_t i) const { return sequences_[i]; }

  /// Total interval count across all sequences.
  size_t TotalIntervals() const;

  DatabaseStats ComputeStats() const;

  /// Converts a fractional minimum support in (0,1] to an absolute count
  /// (ceil), or rounds an absolute count > 1 up, saturating at the largest
  /// SupportCount.
  SupportCount AbsoluteSupport(double minsup) const;

 private:
  Dictionary dict_;
  std::vector<EventSequence> sequences_;
};

}  // namespace tpm

