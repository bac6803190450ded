#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace tpm {
namespace obs {
namespace {

#ifdef TPM_OBS_DISABLED

// Stub mode: the API surface must compile and every read must come back
// empty/zero. The behavioral tests below only apply to the real registry.
TEST(MetricsTest, DisabledStubsCompileAndStayEmpty) {
  Counter* c = MetricsRegistry::Global().GetCounter("stub.counter");
  c->Increment(42);
  EXPECT_EQ(c->Value(), 0u);
  Gauge* g = MetricsRegistry::Global().GetGauge("stub.gauge");
  g->Set(7);
  EXPECT_EQ(g->Value(), 0);
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("stub.hist", {1, 2, 3});
  h->Observe(2);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_TRUE(snap.Empty());
  EXPECT_EQ(snap.CounterValue("stub.counter"), 0u);
  EXPECT_TRUE(MergeSnapshots({snap, snap}).Empty());
}

#else  // !TPM_OBS_DISABLED

// Each test works against its own uniquely named metrics so tests stay
// independent despite the process-global registry.
std::string Unique(const char* base) {
  static int counter = 0;
  return std::string(base) + "." + std::to_string(++counter);
}

TEST(MetricsTest, CounterStartsAtZeroAndAccumulates) {
  Counter* c = MetricsRegistry::Global().GetCounter(Unique("test.counter"));
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(MetricsTest, SameNameReturnsSameHandle) {
  const std::string name = Unique("test.same");
  Counter* a = MetricsRegistry::Global().GetCounter(name);
  Counter* b = MetricsRegistry::Global().GetCounter(name);
  EXPECT_EQ(a, b);
}

TEST(MetricsTest, GaugeSetIsLastWriteWins) {
  Gauge* g = MetricsRegistry::Global().GetGauge(Unique("test.gauge"));
  g->Set(10);
  EXPECT_EQ(g->Value(), 10);
  g->Set(7);
  EXPECT_EQ(g->Value(), 7);
  g->Set(0);
  EXPECT_EQ(g->Value(), 0);
}

TEST(MetricsTest, HistogramBucketSemantics) {
  // Bounds are inclusive upper limits: value <= bound lands in that bucket.
  Histogram* h = MetricsRegistry::Global().GetHistogram(Unique("test.hist"),
                                                        {10, 20, 30});
  h->Observe(0);    // <= 10
  h->Observe(10);   // <= 10 (inclusive)
  h->Observe(11);   // <= 20
  h->Observe(30);   // <= 30
  h->Observe(31);   // overflow
  h->Observe(1000); // overflow

  const HistogramSample* s = nullptr;
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  for (const HistogramSample& hs : snap.histograms) {
    if (hs.name.rfind("test.hist", 0) == 0 && hs.count == 6) s = &hs;
  }
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(s->counts[0], 2u);
  EXPECT_EQ(s->counts[1], 1u);
  EXPECT_EQ(s->counts[2], 1u);
  EXPECT_EQ(s->counts[3], 2u);
  EXPECT_EQ(s->sum, 0u + 10 + 11 + 30 + 31 + 1000);
}

TEST(MetricsTest, BoundsBuilders) {
  EXPECT_EQ(LinearBounds(0, 1, 4), (std::vector<uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(ExponentialBounds(1, 4.0, 4), (std::vector<uint64_t>{1, 4, 16, 64}));
}

TEST(MetricsTest, ConcurrentIncrementsFromFourThreads) {
  Counter* c = MetricsRegistry::Global().GetCounter(Unique("test.mt"));
  Histogram* h =
      MetricsRegistry::Global().GetHistogram(Unique("test.mt.hist"), {100});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(static_cast<uint64_t>(i % 200));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kPerThread);

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  bool found = false;
  for (const HistogramSample& hs : snap.histograms) {
    if (hs.count == static_cast<uint64_t>(kThreads) * kPerThread &&
        hs.name.rfind("test.mt.hist", 0) == 0) {
      found = true;
      // i % 200: half the observations are <= 100 (0..100 inclusive is 101 of
      // 200 values), the rest overflow.
      EXPECT_EQ(hs.counts[0], static_cast<uint64_t>(kThreads) * kPerThread / 200 * 101);
      EXPECT_EQ(hs.counts[1], static_cast<uint64_t>(kThreads) * kPerThread / 200 * 99);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MetricsTest, SnapshotSinceSubtractsCountersAndKeepsGauges) {
  const std::string cname = Unique("test.delta.counter");
  const std::string gname = Unique("test.delta.gauge");
  Counter* c = MetricsRegistry::Global().GetCounter(cname);
  Gauge* g = MetricsRegistry::Global().GetGauge(gname);
  c->Increment(5);
  g->Set(100);
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  c->Increment(7);
  g->Set(200);
  const MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().Since(before);
  EXPECT_EQ(delta.CounterValue(cname), 7u);
  const GaugeSample* gs = delta.FindGauge(gname);
  ASSERT_NE(gs, nullptr);
  EXPECT_EQ(gs->value, 200);
}

// MergeSnapshot folds a run's merged metrics into a registry: counters add,
// nonzero gauges overwrite, histograms add per bucket when the bounds match,
// and names the target lacks are registered.
TEST(MetricsTest, MergeSnapshotFoldsIntoTarget) {
  MetricsRegistry target;
  target.GetCounter("search.nodes")->Increment(5);
  target.GetGauge("miner.arena.peak_bytes")->Set(100);
  target.GetHistogram("search.nodes", {1, 2})->Observe(1);
  MetricsRegistry run;
  run.GetCounter("search.nodes")->Increment(10);
  run.GetGauge("process.peak_rss_bytes")->Set(4096);
  run.GetGauge("miner.arena.peak_bytes")->Set(0);  // zero: left as is
  run.GetHistogram("search.nodes", {1, 2})->Observe(2);
  run.GetHistogram("search.projected_seqs", {4})->Observe(9);
  target.MergeSnapshot(run.Snapshot());

  const MetricsSnapshot snap = target.Snapshot();
  EXPECT_EQ(snap.CounterValue("search.nodes"), 15u);
  ASSERT_NE(snap.FindGauge("process.peak_rss_bytes"), nullptr);
  EXPECT_EQ(snap.FindGauge("process.peak_rss_bytes")->value, 4096);
  EXPECT_EQ(snap.FindGauge("miner.arena.peak_bytes")->value, 100);
  const HistogramSample* nodes = snap.FindHistogram("search.nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_EQ(nodes->counts, (std::vector<uint64_t>{1, 1, 0}));
  const HistogramSample* seqs = snap.FindHistogram("search.projected_seqs");
  ASSERT_NE(seqs, nullptr);
  EXPECT_EQ(seqs->counts, (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(seqs->sum, 9u);
}

// Builds K snapshots with overlapping but distinct metric content.
std::vector<MetricsSnapshot> MakeSnapshots(size_t k) {
  std::vector<MetricsSnapshot> snaps;
  for (size_t i = 0; i < k; ++i) {
    MetricsRegistry r;
    r.GetCounter("search.nodes")->Increment(100 + i);
    r.GetCounter("prune.pair.hits")->Increment(i * 7);
    // Peaks differ per part; the merge must take the max.
    r.GetGauge("miner.arena.peak_bytes")->Set(1000 + static_cast<int64_t>(i));
    Histogram* h = r.GetHistogram("search.nodes", {1, 2, 4});
    for (size_t j = 0; j <= i; ++j) h->Observe(j);
    snaps.push_back(r.Snapshot());
  }
  return snaps;
}

TEST(MergeSnapshotsTest, FoldRules) {
  const MetricsSnapshot merged = MergeSnapshots(MakeSnapshots(3));
  EXPECT_EQ(merged.CounterValue("search.nodes"), 100u + 101 + 102);
  EXPECT_EQ(merged.CounterValue("prune.pair.hits"), 0u + 7 + 14);
  ASSERT_NE(merged.FindGauge("miner.arena.peak_bytes"), nullptr);
  EXPECT_EQ(merged.FindGauge("miner.arena.peak_bytes")->value, 1002);
  const HistogramSample* h = merged.FindHistogram("search.nodes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u + 2 + 3);  // part i observed i+1 values
  EXPECT_EQ(h->counts, (std::vector<uint64_t>{5, 1, 0, 0}));
}

TEST(MergeSnapshotsTest, ConflictingHistogramShapesFirstOccurrenceWins) {
  // Same name, different bounds: the first part's shape wins and the
  // incompatible one is dropped, not mixed in.
  MetricsRegistry a, b;
  a.GetHistogram("search.nodes", {1, 2})->Observe(1);
  b.GetHistogram("search.nodes", {1, 2, 4})->Observe(1);
  b.GetHistogram("search.nodes", {1, 2, 4})->Observe(3);
  const MetricsSnapshot ab = MergeSnapshots({a.Snapshot(), b.Snapshot()});
  const HistogramSample* h = ab.FindHistogram("search.nodes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->bounds, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(h->count, 1u);
  const MetricsSnapshot ba = MergeSnapshots({b.Snapshot(), a.Snapshot()});
  h = ba.FindHistogram("search.nodes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->bounds, (std::vector<uint64_t>{1, 2, 4}));
  EXPECT_EQ(h->count, 2u);
}

TEST(MetricsTest, ExporterFormats) {
  const std::string cname = Unique("test.export.counter");
  MetricsRegistry::Global().GetCounter(cname)->Increment(3);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"" + cname + "\": 3"), std::string::npos);

  const std::string prom = snap.ToPrometheus();
  // Dots map to underscores and the tpm_ prefix is applied.
  std::string prom_name = "tpm_" + cname;
  for (char& ch : prom_name) {
    if (ch == '.') ch = '_';
  }
  EXPECT_NE(prom.find("# TYPE " + prom_name + " counter"), std::string::npos);
  EXPECT_NE(prom.find(prom_name + " 3"), std::string::npos);

  const std::string table = snap.ToString();
  EXPECT_NE(table.find(cname), std::string::npos);
}

TEST(MetricsTest, PrometheusHistogramIsCumulative) {
  const std::string hname = Unique("test.export.hist");
  Histogram* h = MetricsRegistry::Global().GetHistogram(hname, {1, 2});
  h->Observe(1);
  h->Observe(2);
  h->Observe(3);
  const std::string prom = MetricsRegistry::Global().Snapshot().ToPrometheus();
  std::string prom_name = "tpm_" + hname;
  for (char& ch : prom_name) {
    if (ch == '.') ch = '_';
  }
  EXPECT_NE(prom.find(prom_name + "_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find(prom_name + "_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(prom.find(prom_name + "_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find(prom_name + "_count 3"), std::string::npos);
}

#endif  // TPM_OBS_DISABLED

}  // namespace
}  // namespace obs
}  // namespace tpm
