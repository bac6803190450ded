// Flight recorder: a fixed-size ring of recent milestone events, owned by a
// StatsDomain (stats_domain.h). Mining code records coarse milestones
// (run/build boundaries, level-1 buckets, pattern-count watermarks, guard
// trips); when a run dies early — SIGINT, budget truncation, injected fault —
// the last events explain what the search was doing, without the cost or
// volume of full tracing. The ring keeps the newest `capacity` events and a
// total count of everything ever recorded, so a postmortem states both "the
// last N milestones" and "how many were dropped".
//
// Thread-compatible, like the run that writes it: one recorder per domain,
// one owner at a time (a parallel run records its milestones from the
// calling thread only).
// Under TPM_OBS_DISABLED, Record() is a no-op and Events() is empty.

#pragma once


#include <cstddef>
#include <cstdint>
#include <vector>

namespace tpm {
namespace obs {

/// One recorded milestone. `kind` must be a string literal (or otherwise
/// outlive the recorder): only the pointer is stored, exactly like trace
/// span names.
struct FlightEvent {
  uint64_t t_ns = 0;        ///< steady-clock timestamp
  const char* kind = "";    ///< e.g. "run.begin", "bucket", "guard.stop"
  uint64_t a = 0;           ///< kind-specific payload (documented per site)
  uint64_t b = 0;
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  /// Appends an event, overwriting the oldest once the ring is full.
  void Record(const char* kind, uint64_t a = 0, uint64_t b = 0);

  /// Events still in the ring, oldest first.
  std::vector<FlightEvent> Events() const;

  /// Everything ever recorded, including overwritten events.
  uint64_t total_recorded() const { return total_; }

  size_t capacity() const { return ring_.size(); }

  void Clear();

 private:
  std::vector<FlightEvent> ring_;
  size_t next_ = 0;      // slot the next Record() writes
  uint64_t total_ = 0;
};

}  // namespace obs
}  // namespace tpm
