// StatsDomain: isolation from the global registry, flight-ring wrap-around,
// and the postmortem document.

#include "obs/stats_domain.h"

#include <string>

#include "gtest/gtest.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/json.h"

namespace tpm {
namespace obs {
namespace {

#ifndef TPM_OBS_DISABLED

TEST(StatsDomainTest, IsolatedFromGlobalRegistry) {
  const uint64_t global_before =
      MetricsRegistry::Global().Snapshot().CounterValue("prune.pair.hits");
  StatsDomain domain("worker-0");
  domain.GetCounter("prune.pair.hits")->Increment(42);
  EXPECT_EQ(domain.Snapshot().CounterValue("prune.pair.hits"), 42u);
  EXPECT_EQ(
      MetricsRegistry::Global().Snapshot().CounterValue("prune.pair.hits"),
      global_before);
}

TEST(StatsDomainTest, HandlesAreStablePerDomain) {
  StatsDomain a("a");
  StatsDomain b("b");
  EXPECT_EQ(a.GetCounter("search.nodes"), a.GetCounter("search.nodes"));
  EXPECT_NE(a.GetCounter("search.nodes"), b.GetCounter("search.nodes"));
}

TEST(StatsDomainTest, RecordEventChargesFlightCounter) {
  StatsDomain domain("d");
  domain.RecordEvent("run.begin", 1, 2);
  domain.RecordEvent("run.end", 3, 4);
  EXPECT_EQ(domain.Snapshot().CounterValue("obs.flight.events"), 2u);
  const auto events = domain.recorder().Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].kind, "run.begin");
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_STREQ(events[1].kind, "run.end");
  EXPECT_EQ(events[1].b, 4u);
}

TEST(FlightRecorderTest, RingKeepsNewestAndCountsDrops) {
  FlightRecorder rec(4);
  for (uint64_t i = 0; i < 10; ++i) rec.Record("tick", i, 0);
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.capacity(), 4u);
  const auto events = rec.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: the surviving events are 6, 7, 8, 9.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 6 + i) << i;
    EXPECT_GE(events[i].t_ns, i == 0 ? 0 : events[i - 1].t_ns);
  }
  rec.Clear();
  EXPECT_TRUE(rec.Events().empty());
  EXPECT_EQ(rec.total_recorded(), 0u);
}

TEST(PostmortemJsonTest, DocumentShape) {
  StatsDomain domain("mine");
  domain.RecordEvent("run.begin", 300, 3);
  domain.RecordEvent("guard.stop", 1, 77);
  domain.GetCounter("search.nodes")->Increment(9);
  const std::string doc = PostmortemJson(domain, domain.Snapshot(), "truncated", "deadline");
  auto parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("domain")->text, "mine");
  EXPECT_EQ(parsed->Find("outcome")->text, "truncated");
  EXPECT_EQ(parsed->Find("detail")->text, "deadline");
  const JsonValue* events = parsed->Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 2u);
  EXPECT_EQ(events->items[0].Find("kind")->text, "run.begin");
  EXPECT_EQ(events->items[0].Find("us")->AsUint64(), 0u);  // relative to first
  EXPECT_EQ(events->items[1].Find("kind")->text, "guard.stop");
  EXPECT_EQ(events->items[1].Find("a")->AsUint64(), 1u);
  EXPECT_EQ(events->items[1].Find("b")->AsUint64(), 77u);
  const JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_object());
  EXPECT_NE(metrics->Find("counters"), nullptr);
}

TEST(StatsDomainTest, ChargedNamesAreRegistered) {
  // The names StatsDomain and ProgressTracker charge implicitly must be in
  // the lint registry like any hand-written charge site.
  EXPECT_TRUE(IsRegisteredMetricName("obs.flight.events"));
  EXPECT_TRUE(IsRegisteredMetricName("progress.snapshots"));
  EXPECT_TRUE(IsRegisteredMetricName("process.peak_rss_bytes"));
}

#else  // TPM_OBS_DISABLED

TEST(StatsDomainTest, DisabledModeCompilesAndIsInert) {
  StatsDomain domain("d");
  domain.RecordEvent("run.begin", 1, 2);
  domain.GetCounter("search.nodes")->Increment(10);
  EXPECT_TRUE(domain.recorder().Events().empty());
  EXPECT_TRUE(domain.Snapshot().Empty());
}

#endif  // TPM_OBS_DISABLED

}  // namespace
}  // namespace obs
}  // namespace tpm
