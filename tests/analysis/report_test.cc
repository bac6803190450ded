// RenderMetricsReport: auto-detection of the three artifact shapes and the
// content of the rendered sections.

#include "analysis/report.h"

#include <string>

#include "gtest/gtest.h"
#include "obs/metrics.h"

namespace tpm {
namespace {

constexpr char kSnapshotJson[] = R"({
  "counters": {
    "prune.pair.hits": 10,
    "prune.postfix.hits": 20,
    "prune.validity.hits": 5,
    "search.candidates": 100,
    "search.patterns": 7,
    "search.states": 50,
    "robust.stop.deadline": 1
  },
  "gauges": {
    "miner.arena.peak_bytes": 2097152,
    "process.peak_rss_bytes": 8388608
  },
  "histograms": {
    "search.nodes": {"bounds": [0, 1, 2], "counts": [1, 4, 2, 0],
                     "count": 7, "sum": 9}
  }
})";

TEST(ReportTest, RendersSnapshotSections) {
  auto report = RenderMetricsReport(kSnapshotJson);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("pruning effectiveness"), std::string::npos);
  EXPECT_NE(report->find("pair"), std::string::npos);
  // Each rule in its own unit: pair hits per candidate, postfix symbol
  // removals per expanded node, validity closes per state.
  EXPECT_NE(report->find("10.0% of candidates"), std::string::npos);
  EXPECT_NE(report->find("2.86 symbols removed per node"), std::string::npos);
  EXPECT_NE(report->find("10.0% of states"), std::string::npos);
  EXPECT_NE(report->find("0.0% of generated candidates"), std::string::npos);
  EXPECT_NE(report->find("nodes expanded 7"), std::string::npos);
  EXPECT_NE(report->find("search nodes by depth"), std::string::npos);
  EXPECT_NE(report->find("depth 1"), std::string::npos);
  EXPECT_NE(report->find("2.0 MiB"), std::string::npos);  // arena peak
  EXPECT_NE(report->find("8.0 MiB"), std::string::npos);  // rss peak
  EXPECT_NE(report->find("truncated by deadline (1)"), std::string::npos);
}

TEST(ReportTest, PostfixHitsAreNotAShareOfCandidates) {
  // Postfix pruning removes symbols from each node's allowed set, so it can
  // remove more symbols than there are candidates left to check.
  auto report = RenderMetricsReport(R"({
    "counters": {"search.candidates": 100, "prune.postfix.hits": 300},
    "gauges": {},
    "histograms": {
      "search.nodes": {"bounds": [0, 1], "counts": [1, 2, 0],
                       "count": 3, "sum": 2}
    }
  })");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("100.00 symbols removed per node"), std::string::npos);
  EXPECT_EQ(report->find("300.0%"), std::string::npos);
}

TEST(ReportTest, CompletedRunReportsNoTrips) {
  auto report = RenderMetricsReport(
      R"({"counters": {"search.candidates": 3}, "gauges": {}, "histograms": {}})");
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("ran to completion"), std::string::npos);
}

TEST(ReportTest, RendersPostmortem) {
  const std::string doc = R"({
    "domain": "mine", "outcome": "truncated", "detail": "deadline",
    "events_recorded": 3,
    "events": [{"us": 0, "kind": "run.begin", "a": 1, "b": 2}],
    "metrics": {"counters": {"search.candidates": 4}, "gauges": {},
                "histograms": {}}
  })";
  auto report = RenderMetricsReport(doc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("postmortem: domain=mine outcome=truncated"),
            std::string::npos);
  EXPECT_NE(report->find("(1 flight events)"), std::string::npos);
  EXPECT_NE(report->find("pruning effectiveness"), std::string::npos);
}

TEST(ReportTest, RendersBenchArray) {
  const std::string doc = R"([
    {"algo": "P-TPMiner/E", "config": "pseudo", "seconds": 1.25,
     "patterns": 42, "stop_reason": "none",
     "metrics": {"counters": {"search.candidates": 9}, "gauges": {},
                 "histograms": {}}},
    {"algo": "P-TPMiner/C", "config": "copy", "seconds": 2.5,
     "patterns": 7, "stop_reason": "deadline"}
  ])";
  auto report = RenderMetricsReport(doc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("bench records: 2 cells"), std::string::npos);
  EXPECT_NE(report->find("P-TPMiner/E @ pseudo: 1.250s, 42 patterns"),
            std::string::npos);
  EXPECT_NE(report->find("stop=deadline"), std::string::npos);
  // The second cell has no metrics object: header only, no crash.
  EXPECT_NE(report->find("P-TPMiner/C @ copy"), std::string::npos);
}

TEST(ReportTest, RendersPerWorkerBreakdown) {
  // Attribution histograms use the worker id as the observed value, so
  // bucket i is worker i. Worker 2 did nothing and must be skipped.
  const std::string doc = R"({
    "counters": {"search.candidates": 10},
    "gauges": {},
    "histograms": {
      "miner.worker.units": {"bounds": [0, 1, 2, 3],
                             "counts": [3, 2, 0, 1, 0], "count": 6, "sum": 5},
      "miner.worker.nodes": {"bounds": [0, 1, 2, 3],
                             "counts": [40, 25, 0, 11, 0], "count": 76,
                             "sum": 50}
    }
  })";
  auto report = RenderMetricsReport(doc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("workers (scheduling attribution"), std::string::npos);
  EXPECT_NE(report->find("worker 0"), std::string::npos);
  EXPECT_NE(report->find("worker 1"), std::string::npos);
  EXPECT_EQ(report->find("worker 2"), std::string::npos);  // idle: skipped
  EXPECT_NE(report->find("worker 3"), std::string::npos);
  EXPECT_NE(report->find("40"), std::string::npos);
  EXPECT_NE(report->find("11"), std::string::npos);
}

TEST(ReportTest, OmitsWorkerBreakdownForSingleThreadRuns) {
  // No miner.worker.* histograms (the --threads=1 shape): no section.
  auto report = RenderMetricsReport(kSnapshotJson);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->find("workers (scheduling"), std::string::npos);
}

TEST(ReportTest, RejectsUnknownShapesAndBadJson) {
  EXPECT_FALSE(RenderMetricsReport("not json").ok());
  EXPECT_FALSE(RenderMetricsReport("[]").ok());
  EXPECT_FALSE(RenderMetricsReport("{\"foo\": 1}").ok());
  EXPECT_FALSE(RenderMetricsReport("42").ok());
}

#ifndef TPM_OBS_DISABLED
// End-to-end: a live registry's ToJson renders without loss of the headline
// numbers (guards the exporter format and the reader agreeing with each
// other).
TEST(ReportTest, RoundTripsLiveRegistrySnapshot) {
  obs::MetricsRegistry registry;
  registry.GetCounter("search.candidates")->Increment(12);
  registry.GetCounter("prune.pair.hits")->Increment(3);
  obs::Histogram* h =
      registry.GetHistogram("search.nodes", obs::LinearBounds(0, 1, 4));
  h->Observe(1);
  h->Observe(1);
  h->Observe(2);
  auto report = RenderMetricsReport(registry.Snapshot().ToJson());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("candidates checked 12"), std::string::npos);
  EXPECT_NE(report->find("nodes expanded 3"), std::string::npos);
  EXPECT_NE(report->find("25.0%"), std::string::npos);  // pair 3/12
}
#endif

Checkpoint GrowthCheckpoint(uint64_t total_units, uint64_t completed) {
  Checkpoint ckpt;
  ckpt.key.language = "endpoint";
  ckpt.key.algo = "growth";
  ckpt.key.min_support = 0.1;
  ckpt.total_units = total_units;
  for (uint64_t u = 0; u < completed; ++u) {
    ckpt.completed_units.push_back(u);
    ckpt.unit_pattern_counts.push_back(0);
  }
  return ckpt;
}

TEST(CheckpointReportTest, RendersBucketProgress) {
  auto report = RenderCheckpointReport(GrowthCheckpoint(4, 1));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("checkpoint: endpoint growth"), std::string::npos)
      << *report;
  EXPECT_NE(report->find("progress: 1 of 4 buckets complete (25.0%)"),
            std::string::npos)
      << *report;
  EXPECT_NE(report->find("patterns banked: 0\n"), std::string::npos)
      << *report;
}

// A run stopped during the root scan has not counted its buckets yet: the
// report says so plainly instead of dividing by zero.
TEST(CheckpointReportTest, RootScanStopHasNoPercentage) {
  auto report = RenderCheckpointReport(GrowthCheckpoint(0, 0));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("progress: 0 of 0 buckets complete\n"),
            std::string::npos)
      << *report;
  EXPECT_EQ(report->find("nan"), std::string::npos) << *report;
  EXPECT_EQ(report->find("levels"), std::string::npos) << *report;
}

}  // namespace
}  // namespace tpm
