#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <ostream>

#include "util/string_util.h"
#include "util/sync.h"

namespace tpm {
namespace obs {

namespace {

std::atomic<bool> g_trace_enabled{false};

#ifndef TPM_OBS_DISABLED

// Spans are coarse (phases, levels, I/O operations), so a mutex-guarded ring
// is plenty and keeps the sink free of data races under TSan.
constexpr size_t kRingCapacity = 1 << 15;

struct Ring {
  Mutex mu;
  std::vector<TraceEvent> events TPM_GUARDED_BY(mu);  // capped at kRingCapacity
  size_t next TPM_GUARDED_BY(mu) = 0;  // overwrite cursor once full
  uint64_t dropped TPM_GUARDED_BY(mu) = 0;
};

Ring& GlobalRing() {
  static Ring* ring = new Ring();
  return *ring;
}

uint32_t ThisThreadTraceId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

#endif  // TPM_OBS_DISABLED

}  // namespace

void SetTraceEnabled(bool enabled) {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

bool TraceEnabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

#ifndef TPM_OBS_DISABLED

namespace internal {

uint64_t TraceNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void RecordSpan(const char* name, uint64_t start_ns, uint64_t dur_ns) {
  TraceEvent ev;
  ev.name = name;
  ev.tid = ThisThreadTraceId();
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  Ring& ring = GlobalRing();
  MutexLock lock(&ring.mu);
  if (ring.events.size() < kRingCapacity) {
    ring.events.push_back(ev);
  } else {
    ring.events[ring.next] = ev;
    ring.next = (ring.next + 1) % kRingCapacity;
    ++ring.dropped;
  }
}

}  // namespace internal

void ClearTrace() {
  Ring& ring = GlobalRing();
  MutexLock lock(&ring.mu);
  ring.events.clear();
  ring.next = 0;
  ring.dropped = 0;
}

std::vector<TraceEvent> TraceEvents() {
  Ring& ring = GlobalRing();
  MutexLock lock(&ring.mu);
  std::vector<TraceEvent> out;
  out.reserve(ring.events.size());
  // Once the ring has wrapped, `next` points at the oldest slot.
  for (size_t i = 0; i < ring.events.size(); ++i) {
    out.push_back(ring.events[(ring.next + i) % ring.events.size()]);
  }
  return out;
}

#else  // TPM_OBS_DISABLED

void ClearTrace() {}

std::vector<TraceEvent> TraceEvents() { return {}; }

#endif  // TPM_OBS_DISABLED

void WriteChromeTrace(std::ostream& out) {
  const std::vector<TraceEvent> events = TraceEvents();
  uint64_t epoch_ns = ~0ull;
  for (const TraceEvent& ev : events) {
    epoch_ns = std::min(epoch_ns, ev.start_ns);
  }
  out << "{\"traceEvents\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    out << (i == 0 ? "\n" : ",\n")
        << StringPrintf(
               "  {\"name\": \"%s\", \"cat\": \"tpm\", \"ph\": \"X\", "
               "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}",
               ev.name, ev.tid,
               static_cast<double>(ev.start_ns - epoch_ns) / 1e3,
               static_cast<double>(ev.dur_ns) / 1e3);
  }
  out << (events.empty() ? "]" : "\n]") << ", \"displayTimeUnit\": \"ms\"}\n";
}

Status WriteChromeTraceFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  WriteChromeTrace(out);
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace obs
}  // namespace tpm
