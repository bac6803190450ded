#include "analysis/report.h"

#include <algorithm>
#include <vector>

#include "util/json.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace tpm {

namespace {

// All metric-name literals below go through FindMetric so the project lint
// (tools/lint/check_project.py) checks them against the metric-name
// registry, the same way it checks charge sites.
const JsonValue* FindMetric(const JsonValue* group, const std::string& name) {
  return group == nullptr ? nullptr : group->Find(name);
}

uint64_t MetricValue(const JsonValue* group, const std::string& name) {
  const JsonValue* v = FindMetric(group, name);
  return v == nullptr ? 0 : v->AsUint64();
}

std::string HumanBytes(uint64_t bytes) {
  if (bytes >= 1024ull * 1024 * 1024) {
    return StringPrintf("%.2f GiB", static_cast<double>(bytes) / (1ull << 30));
  }
  if (bytes >= 1024 * 1024) {
    return StringPrintf("%.1f MiB", static_cast<double>(bytes) / (1 << 20));
  }
  if (bytes >= 1024) {
    return StringPrintf("%.1f KiB", static_cast<double>(bytes) / (1 << 10));
  }
  return StringPrintf("%llu B", static_cast<unsigned long long>(bytes));
}

// One pruning-effectiveness row: rule name, hits, and hits per `base` in
// the rule's own unit (`percent` renders the ratio as a share of `base`).
void AppendRuleRow(std::string* out, const char* label, uint64_t hits,
                   uint64_t base, bool percent, const char* unit) {
  *out += StringPrintf("  %-10s %12llu", label,
                       static_cast<unsigned long long>(hits));
  if (base > 0) {
    const double ratio = static_cast<double>(hits) / static_cast<double>(base);
    *out += percent ? StringPrintf("  %5.1f%% %s", 100.0 * ratio, unit)
                    : StringPrintf("  %6.2f %s", ratio, unit);
  }
  *out += "\n";
}

// Renders one metrics-snapshot object ({"counters":…,"gauges":…,
// "histograms":…}).
void RenderSnapshot(const JsonValue& snap, std::string* out) {
  const JsonValue* counters = snap.Find("counters");
  const JsonValue* gauges = snap.Find("gauges");
  const JsonValue* histograms = snap.Find("histograms");

  // --- Pruning effectiveness (the paper's Table 2 accounting) -------------
  const uint64_t candidates = MetricValue(counters, "search.candidates");
  const uint64_t pair = MetricValue(counters, "prune.pair.hits");
  const uint64_t postfix = MetricValue(counters, "prune.postfix.hits");
  const uint64_t validity = MetricValue(counters, "prune.validity.hits");
  const uint64_t apriori = MetricValue(counters, "prune.apriori.hits");
  const JsonValue* nodes_hist = FindMetric(histograms, "search.nodes");
  const uint64_t nodes =
      nodes_hist != nullptr ? MetricValue(nodes_hist, "count") : 0;

  const uint64_t states = MetricValue(counters, "search.states");

  // Each rule in the unit it removes work in, so no share exceeds 100%:
  // pair-table rejections are candidates, postfix hits are symbols dropped
  // from a node's allowed set, validity closes are states, and Apriori
  // rejections are level-wise candidates never support-counted.
  *out += "pruning effectiveness (each rule's hits in its own unit):\n";
  *out += StringPrintf("  %-10s %12s  %s\n", "rule", "hits", "rate");
  AppendRuleRow(out, "pair", pair, candidates, true, "of candidates");
  AppendRuleRow(out, "postfix", postfix, nodes, false,
                "symbols removed per node");
  AppendRuleRow(out, "validity", validity, states, true, "of states");
  AppendRuleRow(out, "apriori", apriori, apriori + candidates, true,
                "of generated candidates");
  *out += StringPrintf(
      "  candidates checked %llu, nodes expanded %llu, patterns %llu, "
      "states %llu\n",
      static_cast<unsigned long long>(candidates),
      static_cast<unsigned long long>(nodes),
      static_cast<unsigned long long>(MetricValue(counters, "search.patterns")),
      static_cast<unsigned long long>(states));

  // --- Per-depth node histogram -------------------------------------------
  if (nodes_hist != nullptr && nodes > 0) {
    const JsonValue* bounds = nodes_hist->Find("bounds");
    const JsonValue* counts = nodes_hist->Find("counts");
    if (bounds != nullptr && counts != nullptr && bounds->is_array() &&
        counts->is_array() && counts->items.size() == bounds->items.size() + 1) {
      uint64_t max_count = 0;
      for (const JsonValue& c : counts->items) {
        max_count = std::max(max_count, c.AsUint64());
      }
      *out += "search nodes by depth (pattern items per expanded node):\n";
      for (size_t i = 0; i < counts->items.size(); ++i) {
        const uint64_t c = counts->items[i].AsUint64();
        if (c == 0) continue;
        const std::string label =
            i < bounds->items.size()
                ? StringPrintf("%llu", static_cast<unsigned long long>(
                                           bounds->items[i].AsUint64()))
                : std::string("more");
        const int bar = max_count == 0
                            ? 0
                            : static_cast<int>(40.0 * static_cast<double>(c) /
                                               static_cast<double>(max_count));
        *out += StringPrintf("  depth %-5s %12llu  %s\n", label.c_str(),
                             static_cast<unsigned long long>(c),
                             std::string(static_cast<size_t>(std::max(bar, 1)),
                                         '#')
                                 .c_str());
      }
    }
  }

  // --- Memory --------------------------------------------------------------
  const uint64_t arena_peak = MetricValue(gauges, "miner.arena.peak_bytes");
  const uint64_t rss_peak = MetricValue(gauges, "process.peak_rss_bytes");
  if (arena_peak > 0 || rss_peak > 0) {
    *out += "memory:\n";
    if (arena_peak > 0) {
      *out += StringPrintf("  projection arenas peak  %s\n",
                           HumanBytes(arena_peak).c_str());
    }
    if (rss_peak > 0) {
      *out += StringPrintf("  process peak RSS        %s\n",
                           HumanBytes(rss_peak).c_str());
    }
  }

  // --- Per-worker scheduling breakdown ------------------------------------
  // The parallel miner's attribution histograms use the worker id as the
  // observed value (LinearBounds(0,1,..)), so bucket i is worker i. Present
  // only when a run mined with --threads > 1.
  const JsonValue* wunits = FindMetric(histograms, "miner.worker.units");
  const JsonValue* wnodes = FindMetric(histograms, "miner.worker.nodes");
  const JsonValue* wunit_counts =
      wunits != nullptr ? wunits->Find("counts") : nullptr;
  const JsonValue* wnode_counts =
      wnodes != nullptr ? wnodes->Find("counts") : nullptr;
  if (wunit_counts != nullptr && wnode_counts != nullptr &&
      wunit_counts->is_array() && wnode_counts->is_array()) {
    const size_t n =
        std::max(wunit_counts->items.size(), wnode_counts->items.size());
    std::string rows;
    for (size_t w = 0; w < n; ++w) {
      const uint64_t units = w < wunit_counts->items.size()
                                 ? wunit_counts->items[w].AsUint64()
                                 : 0;
      const uint64_t wn = w < wnode_counts->items.size()
                              ? wnode_counts->items[w].AsUint64()
                              : 0;
      if (units == 0 && wn == 0) continue;
      rows += StringPrintf("  worker %-3llu %12llu %15llu\n",
                           static_cast<unsigned long long>(w),
                           static_cast<unsigned long long>(units),
                           static_cast<unsigned long long>(wn));
    }
    if (!rows.empty()) {
      *out += "workers (scheduling attribution; varies run to run):\n";
      *out += StringPrintf("  %-10s %12s %15s\n", "worker", "units done",
                           "nodes expanded");
      *out += rows;
    }
  }

  // --- Stop reason ---------------------------------------------------------
  struct StopRow {
    const char* name;
    const char* label;
  };
  const StopRow kStops[] = {
      {"robust.stop.deadline", "deadline"},
      {"robust.stop.memory", "memory"},
      {"robust.stop.cancelled", "cancelled"},
      {"robust.stop.pattern-cap", "pattern-cap"},
  };
  std::string stops;
  for (const StopRow& s : kStops) {
    const uint64_t n = MetricValue(counters, s.name);
    if (n == 0) continue;
    if (!stops.empty()) stops += ", ";
    stops += StringPrintf("%s (%llu)", s.label,
                          static_cast<unsigned long long>(n));
  }
  if (stops.empty()) {
    *out += "stop: ran to completion (no budget trips recorded)\n";
  } else {
    *out += "stop: truncated by " + stops + "\n";
  }
  const uint64_t progress = MetricValue(counters, "progress.snapshots");
  const uint64_t flight = MetricValue(counters, "obs.flight.events");
  if (progress > 0 || flight > 0) {
    *out += StringPrintf(
        "observability: %llu progress snapshots, %llu flight events\n",
        static_cast<unsigned long long>(progress),
        static_cast<unsigned long long>(flight));
  }
}

void RenderBenchCell(const JsonValue& cell, std::string* out) {
  const JsonValue* algo = cell.Find("algo");
  const JsonValue* config = cell.Find("config");
  const JsonValue* seconds = cell.Find("seconds");
  const JsonValue* patterns = cell.Find("patterns");
  const JsonValue* stop = cell.Find("stop_reason");
  *out += StringPrintf(
      "--- %s @ %s: %.3fs, %llu patterns, stop=%s\n",
      algo != nullptr && algo->is_string() ? algo->text.c_str() : "?",
      config != nullptr && config->is_string() ? config->text.c_str() : "?",
      seconds != nullptr ? seconds->AsDouble() : 0.0,
      static_cast<unsigned long long>(patterns != nullptr ? patterns->AsUint64()
                                                          : 0),
      stop != nullptr && stop->is_string() ? stop->text.c_str() : "none");
  const JsonValue* metrics = cell.Find("metrics");
  if (metrics != nullptr && metrics->is_object() &&
      metrics->Find("counters") != nullptr) {
    RenderSnapshot(*metrics, out);
  }
}

}  // namespace

Result<std::string> RenderMetricsReport(const std::string& json_text) {
  TPM_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json_text));
  std::string out;
  if (root.is_array()) {
    // BENCH_*.json: an array of cells, each with an embedded snapshot.
    if (root.items.empty()) {
      return Status::InvalidArgument("report: empty bench record array");
    }
    out += StringPrintf("bench records: %zu cells\n", root.items.size());
    for (const JsonValue& cell : root.items) RenderBenchCell(cell, &out);
    return out;
  }
  if (root.is_object() && root.Find("counters") != nullptr) {
    // A bare metrics snapshot (tpm mine --metrics-out).
    RenderSnapshot(root, &out);
    return out;
  }
  if (root.is_object() && root.Find("metrics") != nullptr) {
    // A flight-recorder postmortem: header, then its embedded snapshot.
    const JsonValue* domain = root.Find("domain");
    const JsonValue* outcome = root.Find("outcome");
    const JsonValue* detail = root.Find("detail");
    const JsonValue* events = root.Find("events");
    out += StringPrintf(
        "postmortem: domain=%s outcome=%s detail=%s (%zu flight events)\n",
        domain != nullptr && domain->is_string() ? domain->text.c_str() : "?",
        outcome != nullptr && outcome->is_string() ? outcome->text.c_str() : "?",
        detail != nullptr && detail->is_string() ? detail->text.c_str() : "?",
        events != nullptr && events->is_array() ? events->items.size() : 0);
    const JsonValue* metrics = root.Find("metrics");
    if (metrics->is_object()) RenderSnapshot(*metrics, &out);
    return out;
  }
  return Status::InvalidArgument(
      "report: unrecognized document (expected a metrics snapshot, a "
      "postmortem, or a BENCH_*.json array)");
}

Result<std::string> RenderCheckpointReport(const Checkpoint& ckpt) {
  std::string out;
  const CheckpointRunKey& key = ckpt.key;
  out += StringPrintf(
      "checkpoint: %s %s on database %016llx\n", key.language.c_str(),
      key.algo.c_str(), static_cast<unsigned long long>(key.db_fingerprint));
  out += StringPrintf(
      "  options: minsup=%g max_items=%u max_length=%u max_window=%lld "
      "prune=%s%s%s\n",
      key.min_support, key.max_items, key.max_length,
      static_cast<long long>(key.max_window), key.pair_pruning ? "pair " : "",
      key.postfix_pruning ? "postfix " : "",
      key.validity_pruning ? "validity" : "");
  out += StringPrintf("progress: %zu of %llu buckets complete",
                      ckpt.completed_units.size(),
                      static_cast<unsigned long long>(ckpt.total_units));
  // A run stopped during the root scan has no bucket total yet.
  if (ckpt.total_units > 0) {
    out += StringPrintf(" (%.1f%%)",
                        100.0 * static_cast<double>(ckpt.completed_units.size()) /
                            static_cast<double>(ckpt.total_units));
  }
  out += StringPrintf("\npatterns banked: %zu\n", ckpt.patterns.size());
  if (ckpt.time_budget_seconds > 0.0) {
    out += StringPrintf("elapsed: %.2fs of %.2fs wall budget (%.1f%%)\n",
                        ckpt.elapsed_seconds, ckpt.time_budget_seconds,
                        100.0 * ckpt.elapsed_seconds /
                            ckpt.time_budget_seconds);
  } else {
    out += StringPrintf("elapsed: %.2fs (no wall budget)\n",
                        ckpt.elapsed_seconds);
  }
  auto snap = ParseJson(ckpt.metrics.ToJson());
  if (snap.ok() && snap->is_object() && snap->Find("counters") != nullptr) {
    RenderSnapshot(*snap, &out);
  }
  return out;
}

}  // namespace tpm
