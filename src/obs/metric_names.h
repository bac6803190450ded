// Central registry of every metric name the library records.
//
// This is the source of truth the project lint (tools/lint/check_project.py)
// checks call sites against: every name passed to GetCounter / GetGauge /
// GetHistogram (and to the snapshot readers) in src/, tools/, and bench/ must
// appear between the lint markers below, so a typo'd name can never silently
// record (or read) nothing. Names composed at runtime are listed with a
// `dynamic` tag naming the composing site; the lint exempts them from the
// every-entry-has-a-call-site check but still requires the full expansion
// here. To add a metric: pick a name in the existing `area.thing` taxonomy,
// add it to the table (sorted), then use the literal at the call site — see
// docs/STATIC_ANALYSIS.md for the workflow and docs/OBSERVABILITY.md for the
// taxonomy.

#pragma once

#include <cstddef>

namespace tpm {
namespace obs {

// lint: metric-registry-begin
inline constexpr const char* kRegisteredMetricNames[] = {
    "checkpoint.read_bytes",
    "checkpoint.reads",
    "checkpoint.write_bytes",
    "checkpoint.writes",
    "cooc.frequent_symbols",
    "datagen.intervals",
    "datagen.sequences",
    "io.binary.parse_ns",
    "io.binary.read_bytes",
    "io.binary.write_bytes",
    "io.fault.injected",
    "io.load.calls",
    "io.load.ns",
    "io.recovered_lines",
    "io.save.calls",
    "io.save.ns",
    "io.text.parse_ns",
    "io.text.read_bytes",
    "io.text.read_lines",
    "miner.arena.blocks",
    "miner.arena.depth_bytes",
    "miner.arena.lists_bytes",
    "miner.arena.peak_bytes",
    "miner.worker.nodes",
    "miner.worker.units",
    "obs.flight.events",
    "process.peak_rss_bytes",
    "progress.snapshots",
    "prune.apriori.hits",
    "prune.pair.hits",
    "prune.postfix.hits",
    "prune.topk.hits",
    "prune.validity.hits",
    "robust.fault.injected",
    "robust.stop.cancelled",    // dynamic: RecordStopMetrics (miner_metrics.h)
    "robust.stop.deadline",     // dynamic: RecordStopMetrics (miner_metrics.h)
    "robust.stop.memory",       // dynamic: RecordStopMetrics (miner_metrics.h)
    "robust.stop.pattern-cap",  // dynamic: RecordStopMetrics (miner_metrics.h)
    "search.candidates",
    "search.nodes",
    "search.patterns",
    "search.projected_seqs",
    "search.projected_states",
    "search.scan_items",
    "search.states",
    "validate.checks",
    "validate.failures",
};
// lint: metric-registry-end

inline constexpr size_t kNumRegisteredMetricNames =
    sizeof(kRegisteredMetricNames) / sizeof(kRegisteredMetricNames[0]);

/// True when `name` is in the registry above. Linear scan: the table is
/// small and the function is for tests/tools, never hot paths.
bool IsRegisteredMetricName(const char* name);

}  // namespace obs
}  // namespace tpm
