#include "core/database.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "util/parallel.h"
#include "util/string_util.h"

namespace tpm {

namespace {

// One symbol's latest finish in the sequence numbered `stamp`; an entry with
// another stamp is stale and reads as absent.
struct LastFinish {
  size_t stamp = 0;
  TimeT finish = 0;
};

// Event ids up to this bound (or the dictionary size, if larger) index the
// flat array; a larger id sends its sequence to the per-sequence check.
constexpr size_t kDenseEventLimit = size_t{1} << 16;

// The checks of EventSequence::Validate without a per-sequence map. False
// means the sequence may be invalid: the caller asks EventSequence::Validate
// for the verdict and its message.
bool PassesFlatCheck(const std::vector<Interval>& ivs, size_t stamp,
                     size_t dense_limit, std::vector<LastFinish>* last) {
  for (size_t i = 0; i < ivs.size(); ++i) {
    const Interval& iv = ivs[i];
    if (iv.start > iv.finish || (i > 0 && iv < ivs[i - 1])) return false;
    if (iv.event >= last->size()) {
      if (iv.event >= dense_limit) return false;
      last->resize(size_t{iv.event} + 1);
    }
    LastFinish& l = (*last)[iv.event];
    if (l.stamp != stamp) {
      l = {stamp, iv.finish};
    } else if (iv.start <= l.finish) {
      return false;
    } else {
      l.finish = std::max(l.finish, iv.finish);
    }
  }
  return true;
}

}  // namespace

EventId Dictionary::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  EventId id = static_cast<EventId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

Result<EventId> Dictionary::Lookup(std::string_view name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return Status::NotFound("unknown event symbol '" + std::string(name) + "'");
  }
  return it->second;
}

const std::string& Dictionary::Name(EventId id) const {
  if (id < names_.size()) return names_[id];
  // thread_local, not a mutable member: concurrent readers (miners render
  // patterns from worker threads) must not race on shared fallback storage.
  static thread_local std::string fallback;
  fallback = StringPrintf("#%u", id);
  return fallback;
}

std::string DatabaseStats::ToString() const {
  return StringPrintf(
      "sequences=%zu intervals=%zu symbols=%zu avg_len=%.2f max_len=%zu "
      "avg_dur=%.2f time=[%lld,%lld]",
      num_sequences, num_intervals, num_symbols, avg_intervals_per_sequence,
      max_intervals_per_sequence, avg_duration, static_cast<long long>(min_time),
      static_cast<long long>(max_time));
}

void IntervalDatabase::AddSequence(EventSequence sequence) {
  sequence.Normalize();
  sequences_.push_back(std::move(sequence));
}

void IntervalDatabase::AddSequences(std::vector<EventSequence> sequences,
                                    uint32_t threads) {
  const size_t first = sequences_.size();
  if (first == 0) {
    sequences_ = std::move(sequences);
  } else {
    sequences_.insert(sequences_.end(), std::make_move_iterator(sequences.begin()),
                      std::make_move_iterator(sequences.end()));
  }
  ForEachRange(sequences_.size() - first, threads, [&](uint32_t, IndexRange r) {
    for (size_t i = first + r.begin; i < first + r.end; ++i) sequences_[i].Normalize();
  });
}

Status IntervalDatabase::Validate(uint32_t threads) const {
  // One flat pass per sequence range: the last finish per symbol sits in an
  // array indexed by EventId, stamped with the sequence it belongs to. The
  // first failing range in sequence order holds the first failing sequence.
  std::vector<Status> first_error(NumRanges(sequences_.size(), threads));
  ForEachRange(sequences_.size(), threads, [&](uint32_t k, IndexRange r) {
    std::vector<LastFinish> last;
    const size_t dense_limit = std::max(dict_.size(), kDenseEventLimit);
    for (size_t i = r.begin; i < r.end; ++i) {
      if (PassesFlatCheck(sequences_[i].intervals(), i + 1, dense_limit, &last)) {
        continue;
      }
      Status s = sequences_[i].Validate();
      if (!s.ok()) {
        first_error[k] = s.WithContext(StringPrintf("sequence %zu", i));
        return;
      }
    }
  });
  for (Status& s : first_error) {
    if (!s.ok()) return std::move(s);
  }
  return Status::OK();
}

size_t IntervalDatabase::MergeSameSymbolConflicts() {
  size_t total = 0;
  for (EventSequence& seq : sequences_) total += seq.MergeSameSymbolConflicts();
  return total;
}

size_t IntervalDatabase::TotalIntervals() const {
  size_t total = 0;
  for (const EventSequence& seq : sequences_) total += seq.size();
  return total;
}

DatabaseStats IntervalDatabase::ComputeStats() const {
  DatabaseStats st;
  st.num_sequences = sequences_.size();
  st.num_symbols = dict_.size();
  double dur_sum = 0.0;
  bool first = true;
  for (const EventSequence& seq : sequences_) {
    st.num_intervals += seq.size();
    st.max_intervals_per_sequence =
        std::max(st.max_intervals_per_sequence, seq.size());
    for (const Interval& iv : seq.intervals()) {
      dur_sum += static_cast<double>(iv.Duration());
      if (first) {
        st.min_time = iv.start;
        st.max_time = iv.finish;
        first = false;
      } else {
        st.min_time = std::min(st.min_time, iv.start);
        st.max_time = std::max(st.max_time, iv.finish);
      }
    }
  }
  if (st.num_sequences > 0) {
    st.avg_intervals_per_sequence =
        static_cast<double>(st.num_intervals) / static_cast<double>(st.num_sequences);
  }
  if (st.num_intervals > 0) {
    st.avg_duration = dur_sum / static_cast<double>(st.num_intervals);
  }
  return st;
}

SupportCount IntervalDatabase::AbsoluteSupport(double minsup) const {
  if (minsup <= 0.0) return 1;
  if (minsup <= 1.0) {
    double abs = std::ceil(minsup * static_cast<double>(sequences_.size()));
    return static_cast<SupportCount>(std::max(1.0, abs));
  }
  // An absolute count rounds up like a fraction does, and anything past the
  // largest count (inf, NaN, 1e300) saturates instead of overflowing the
  // cast: no pattern can reach it.
  constexpr SupportCount kMax = std::numeric_limits<SupportCount>::max();
  const double abs = std::ceil(minsup);
  if (!(abs < static_cast<double>(kMax))) return kMax;
  return static_cast<SupportCount>(abs);
}

}  // namespace tpm
