// Contiguous-range parallelism for the phases that split a database by
// sequence (text parse, representation build, co-occurrence table, root scan)
// and for the unit phase's worker crew.
//
// RunOnWorkers(n, fn) runs fn(0) on the calling thread and fn(1) ..
// fn(n - 1) on one std::thread each, spawned for this call and joined before
// it returns. n = 1 spawns nothing: the serial case is the one-range case of
// the same code. ForEachRange cuts [0, size) into at most `threads`
// contiguous ranges of nearly equal size and runs one per worker; range k
// covers lower indices than range k + 1, so a caller that combines the
// ranges' results in range order gets the serial order back.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>

namespace tpm {

/// Calls fn(k) for every k in [0, n): k = 0 on the calling thread, the rest
/// on helper threads joined before the call returns. Not a template, so
/// each phase's body is compiled once, not once per thread entry.
void RunOnWorkers(uint32_t n, const std::function<void(uint32_t)>& fn);

/// One contiguous range [begin, end) of indices.
struct IndexRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Range k of [0, size) cut into `parts` contiguous, nearly equal ranges.
inline IndexRange SplitRange(size_t size, uint32_t parts, uint32_t k) {
  return {size * k / parts, size * (k + 1) / parts};
}

/// The number of ranges ForEachRange uses: one per thread, at most one per
/// index, and at least one.
inline uint32_t NumRanges(size_t size, uint32_t threads) {
  return static_cast<uint32_t>(
      std::max<size_t>(1, std::min<size_t>(std::max<uint32_t>(threads, 1), size)));
}

/// Calls fn(k, range) for each of NumRanges(size, threads) ranges of
/// [0, size), each on its own worker (RunOnWorkers).
template <typename Fn>
void ForEachRange(size_t size, uint32_t threads, Fn&& fn) {
  const uint32_t n = NumRanges(size, threads);
  RunOnWorkers(n, [&fn, size, n](uint32_t k) { fn(k, SplitRange(size, n, k)); });
}

}  // namespace tpm
