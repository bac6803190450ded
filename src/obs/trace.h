// Scoped trace spans with a bounded in-process ring sink.
//
//   TPM_TRACE_SPAN("endpoint.grow");   // RAII: records on scope exit
//
// Tracing is off by default; SetTraceEnabled(true) turns it on (e.g. when
// the CLI sees --trace-out). A disabled span costs one relaxed atomic load.
// Completed spans carry nanosecond start/duration timestamps and land in a
// fixed-capacity ring buffer (oldest spans overwritten), which can be dumped
// as Chrome trace_event JSON (chrome://tracing, Perfetto).
//
// Span names must be string literals or otherwise outlive the ring: only the
// pointer is stored.
//
// Under TPM_OBS_DISABLED the macro compiles to nothing and all functions are
// inert.

#pragma once


#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/status.h"

namespace tpm {
namespace obs {

/// One completed span.
struct TraceEvent {
  const char* name = nullptr;
  uint32_t tid = 0;       ///< small sequential id of the recording thread
  uint64_t start_ns = 0;  ///< steady-clock timestamp
  uint64_t dur_ns = 0;
};

/// Spans recorded while disabled are dropped. Thread-safe.
void SetTraceEnabled(bool enabled);
bool TraceEnabled();

/// Drops all recorded spans.
void ClearTrace();

/// Copies the recorded spans, oldest first.
std::vector<TraceEvent> TraceEvents();

/// Writes Chrome trace_event JSON ({"traceEvents": [...]}) for the current
/// ring contents. Timestamps are microseconds relative to the oldest span.
void WriteChromeTrace(std::ostream& out);
Status WriteChromeTraceFile(const std::string& path);

#ifndef TPM_OBS_DISABLED

namespace internal {
uint64_t TraceNowNs();
void RecordSpan(const char* name, uint64_t start_ns, uint64_t dur_ns);
}  // namespace internal

/// RAII span: snapshots the clock on construction when tracing is enabled,
/// records on destruction. Spans nest lexically; the Chrome viewer stacks
/// overlapping spans of one thread into a flame graph.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (TraceEnabled()) {
      name_ = name;
      start_ns_ = internal::TraceNowNs();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      internal::RecordSpan(name_, start_ns_, internal::TraceNowNs() - start_ns_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
};

#else  // TPM_OBS_DISABLED

class TraceSpan {
 public:
  explicit TraceSpan(const char*) {}
};

#endif  // TPM_OBS_DISABLED

}  // namespace obs
}  // namespace tpm

#define TPM_OBS_CONCAT_IMPL(x, y) x##y
#define TPM_OBS_CONCAT(x, y) TPM_OBS_CONCAT_IMPL(x, y)

#ifndef TPM_OBS_DISABLED
#define TPM_TRACE_SPAN(name) \
  ::tpm::obs::TraceSpan TPM_OBS_CONCAT(_tpm_trace_span_, __LINE__)(name)
#else
#define TPM_TRACE_SPAN(name) \
  do {                       \
  } while (false)
#endif

