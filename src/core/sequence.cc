#include "core/sequence.h"

#include <algorithm>
#include <unordered_map>

#include "util/string_util.h"

namespace tpm {

EventSequence::EventSequence(std::vector<Interval> intervals)
    : intervals_(std::move(intervals)) {
  Normalize();
}

void EventSequence::Normalize() {
  // A sequence already in order (normalized once before) skips the sort.
  if (!std::is_sorted(intervals_.begin(), intervals_.end())) {
    std::sort(intervals_.begin(), intervals_.end());
  }
  intervals_.erase(std::unique(intervals_.begin(), intervals_.end()),
                   intervals_.end());
}

Status EventSequence::Validate() const {
  // Track the latest finish per symbol; canonical order sorts by start, so a
  // same-symbol conflict manifests as start <= previous finish.
  std::unordered_map<EventId, TimeT> last_finish;
  for (size_t i = 0; i < intervals_.size(); ++i) {
    const Interval& iv = intervals_[i];
    if (iv.start > iv.finish) {
      return Status::InvalidArgument(
          StringPrintf("interval %zu has start > finish: %s", i,
                       iv.ToString().c_str()));
    }
    if (i > 0 && intervals_[i] < intervals_[i - 1]) {
      return Status::Internal("sequence not in canonical order; call Normalize()");
    }
    auto it = last_finish.find(iv.event);
    if (it != last_finish.end() && iv.start <= it->second) {
      return Status::InvalidArgument(StringPrintf(
          "same-symbol intervals intersect or touch at interval %zu: %s "
          "(previous finish %lld); merge them or use "
          "MergeSameSymbolConflicts()",
          i, iv.ToString().c_str(), static_cast<long long>(it->second)));
    }
    if (it == last_finish.end()) {
      last_finish.emplace(iv.event, iv.finish);
    } else if (iv.finish > it->second) {
      it->second = iv.finish;
    }
  }
  return Status::OK();
}

size_t EventSequence::MergeSameSymbolConflicts() {
  Normalize();
  // Group by symbol, merge chains of intersecting/touching intervals.
  std::vector<Interval> merged;
  merged.reserve(intervals_.size());
  std::unordered_map<EventId, std::vector<Interval>> by_symbol;
  for (const Interval& iv : intervals_) by_symbol[iv.event].push_back(iv);
  size_t merges = 0;
  for (auto& [event, ivs] : by_symbol) {
    // Already sorted by (start, finish) because extraction preserved order.
    Interval current = ivs.front();
    for (size_t i = 1; i < ivs.size(); ++i) {
      if (ivs[i].start <= current.finish) {
        current.finish = std::max(current.finish, ivs[i].finish);
        ++merges;
      } else {
        merged.push_back(current);
        current = ivs[i];
      }
    }
    merged.push_back(current);
  }
  intervals_ = std::move(merged);
  Normalize();
  return merges;
}

TimeT EventSequence::MinTime() const {
  if (intervals_.empty()) return 0;
  return intervals_.front().start;  // canonical order sorts by start first
}

TimeT EventSequence::MaxTime() const {
  TimeT mx = 0;
  bool first = true;
  for (const Interval& iv : intervals_) {
    if (first || iv.finish > mx) mx = iv.finish;
    first = false;
  }
  return mx;
}

std::string EventSequence::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (i > 0) out += " ";
    out += intervals_[i].ToString();
  }
  out += "}";
  return out;
}

}  // namespace tpm
