// Tier E seeded schedule exploration (src/util/sched_test.h): run the real
// parallel miner — GrowthEngine in both pattern languages, four workers,
// --steal — under hundreds of seed-distinct perturbations of its planted
// seams: claiming a work item (miner.sched.next), publishing a split unit's
// sub-units (miner.sched.split), delivering a finished unit
// (miner.unit.deliver), the merger's unit boundary (miner.unit_boundary) and
// every arena rewind (arena.rewind). Every schedule must reproduce the
// serial run's pattern stream in emission order and its comparable merged
// metrics. The sweep must also see at least two distinct per-worker
// attributions (miner.worker.{nodes,units}), which proves the seeds really
// vary who mines what instead of replaying one schedule.
//
// The input is small enough for a sanitizer build, and its most frequent
// symbol's unit is heavy enough to split under --steal, so the sub-unit
// publish and join are explored too.
//
// Compiled to a single skip unless configured with -DTPM_SCHED_TEST=ON (the
// TSan CI job, which also greps for this suite so it cannot silently run
// compiled out).

#include "util/sched_test.h"

#include <gtest/gtest.h>

#ifdef TPM_SCHED_TEST

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "datagen/quest.h"
#include "miner/coincidence_growth.h"
#include "miner/endpoint_growth.h"
#include "testing/test_util.h"

namespace tpm {
namespace {

using testing::ComparableMetricsJson;
using testing::EmissionOrderRender;

constexpr int kSeeds = 256;  // acceptance floor is >= 200 interleavings
constexpr uint32_t kThreads = 4;

IntervalDatabase ExploreDb() {
  QuestConfig config;
  config.num_sequences = 60;
  config.num_symbols = 30;
  config.avg_intervals_per_sequence = 6.0;
  config.seed = 101;
  auto db = GenerateQuest(config);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

MinerOptions ExploreOptions(uint32_t threads) {
  MinerOptions options;
  options.min_support = 0.1;
  options.threads = threads;
  options.steal = threads > 1;
  return options;
}

// Which worker mined how many nodes and finished how many units.
std::string WorkerAttribution(const obs::MetricsSnapshot& metrics) {
  std::string out;
  for (const char* name : {"miner.worker.nodes", "miner.worker.units"}) {
    const obs::HistogramSample* h = metrics.FindHistogram(name);
    if (h == nullptr) continue;
    for (uint64_t c : h->counts) out += std::to_string(c) + ",";
    out += ";";
  }
  return out;
}

// What one language's sweep saw, next to its serial reference.
struct LanguageSweep {
  std::string serial_output;
  std::string serial_metrics;
  uint64_t serial_nodes = 0;
  std::set<std::string> outputs;
  std::set<std::string> metrics;
  std::set<std::string> attributions;

  template <typename ResultT>
  void SetSerial(const ResultT& result, const Dictionary& dict) {
    serial_output = EmissionOrderRender(result, dict);
    serial_metrics = ComparableMetricsJson(result.stats.metrics);
    serial_nodes = result.stats.nodes_expanded;
  }

  template <typename ResultT>
  void Add(const ResultT& result, const Dictionary& dict) {
    outputs.insert(EmissionOrderRender(result, dict));
    metrics.insert(ComparableMetricsJson(result.stats.metrics));
    attributions.insert(WorkerAttribution(result.stats.metrics));
  }
};

struct SweepResults {
  LanguageSweep endpoint;
  LanguageSweep coincidence;
  uint64_t yield_visits = 0;
};

const SweepResults& Sweep() {
  static const SweepResults* results = [] {
    auto* r = new SweepResults();
    const IntervalDatabase db = ExploreDb();
    const MinerOptions serial = ExploreOptions(1);
    auto e1 = MineEndpointGrowth(db, serial, GrowthConfig{});
    auto c1 = MineCoincidenceGrowth(db, serial, GrowthConfig{});
    EXPECT_TRUE(e1.ok() && c1.ok());
    if (!e1.ok() || !c1.ok()) return r;
    r->endpoint.SetSerial(*e1, db.dict());
    r->coincidence.SetSerial(*c1, db.dict());

    const MinerOptions parallel = ExploreOptions(kThreads);
    const uint64_t before = sched::YieldPointVisits();
    for (int s = 0; s < kSeeds; ++s) {
      sched::ScheduleController controller(static_cast<uint64_t>(s));
      // Mine* joins every worker before returning, so the controller
      // outlives every yield point that can see it.
      sched::SetController(&controller);
      auto e = MineEndpointGrowth(db, parallel, GrowthConfig{});
      auto c = MineCoincidenceGrowth(db, parallel, GrowthConfig{});
      sched::SetController(nullptr);
      EXPECT_TRUE(e.ok() && c.ok()) << "seed " << s;
      if (!e.ok() || !c.ok()) continue;
      r->endpoint.Add(*e, db.dict());
      r->coincidence.Add(*c, db.dict());
    }
    r->yield_visits = sched::YieldPointVisits() - before;
    return r;
  }();
  return *results;
}

void ExpectSerialResult(const LanguageSweep& sweep, const char* language) {
  ASSERT_FALSE(sweep.serial_output.empty()) << language << ": no patterns";
  EXPECT_EQ(sweep.outputs.size(), 1u)
      << language << ": " << sweep.outputs.size()
      << " distinct pattern streams across " << kSeeds << " schedules";
  if (!sweep.outputs.empty()) {
    EXPECT_EQ(*sweep.outputs.begin(), sweep.serial_output) << language;
  }
  EXPECT_EQ(sweep.metrics.size(), 1u)
      << language << ": " << sweep.metrics.size()
      << " distinct merged metrics across " << kSeeds << " schedules";
  if (!sweep.metrics.empty()) {
    EXPECT_EQ(*sweep.metrics.begin(), sweep.serial_metrics) << language;
  }
}

TEST(SchedExploreTest, InstrumentationIsLive) {
  ASSERT_TRUE(sched::Enabled());
  // Every expanded node rewinds its child arena at least once, per seed —
  // if the planted points vanished this drops to zero.
  const SweepResults& r = Sweep();
  EXPECT_GE(r.yield_visits,
            static_cast<uint64_t>(kSeeds) *
                (r.endpoint.serial_nodes + r.coincidence.serial_nodes));
}

TEST(SchedExploreTest, RealEngineMatchesSerialUnderEverySchedule) {
  const SweepResults& r = Sweep();
  ExpectSerialResult(r.endpoint, "endpoint");
  ExpectSerialResult(r.coincidence, "coincidence");
}

#ifndef TPM_OBS_DISABLED
TEST(SchedExploreTest, SweepVariesWorkerAttribution) {
  // The seeds must not replay one schedule: who mined what has to differ.
  const SweepResults& r = Sweep();
  EXPECT_GE(r.endpoint.attributions.size(), 2u)
      << "all " << kSeeds << " endpoint runs split the work identically";
  EXPECT_GE(r.coincidence.attributions.size(), 2u)
      << "all " << kSeeds << " coincidence runs split the work identically";
}
#endif  // TPM_OBS_DISABLED

}  // namespace
}  // namespace tpm

#else  // !TPM_SCHED_TEST

namespace tpm {
namespace {

TEST(SchedExploreTest, CompiledOut) {
  EXPECT_FALSE(sched::Enabled());
  GTEST_SKIP() << "TPM_SCHED_TEST is off; configure with -DTPM_SCHED_TEST=ON "
                  "to run the schedule-exploration suite";
}

}  // namespace
}  // namespace tpm

#endif  // TPM_SCHED_TEST
