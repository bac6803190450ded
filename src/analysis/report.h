// `tpm report`: renders this project's own observability artifacts — a
// metrics snapshot JSON (--metrics-out), a BENCH_*.json record array, a
// postmortem dump, or a TPMC mining checkpoint — into a human-readable
// search summary: per-rule pruning effectiveness (mirroring the paper's
// Table 2 accounting), the per-depth search.nodes histogram, memory peaks,
// and the stop reason. See docs/OBSERVABILITY.md ("tpm report") for the
// output format.

#pragma once


#include <string>

#include "io/checkpoint.h"
#include "util/result.h"

namespace tpm {

/// Renders `json_text` (auto-detected: metrics snapshot object, postmortem
/// object, or bench record array) as a report. Fails on unparseable input or
/// a document that is none of the known shapes.
Result<std::string> RenderMetricsReport(const std::string& json_text);

/// Renders a parsed TPMC mining checkpoint: run identity, bucket
/// progress, patterns banked so far, elapsed versus wall budget, and the
/// embedded metrics snapshot through the same pruning-effectiveness tables
/// RenderMetricsReport uses.
Result<std::string> RenderCheckpointReport(const Checkpoint& ckpt);

}  // namespace tpm
