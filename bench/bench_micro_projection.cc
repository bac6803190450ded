// Microbenchmark: the arena-backed projection layer (docs/ARCHITECTURE.md).
//
// Measurements on the Figure 1(c) scalability substrate (C8N200, seed 101):
//
//  1. Projection replay: realistic push/finalize traffic driven through
//     ProjectionBuilder — every endpoint of every sequence staged into a
//     symbol-keyed bucket, all buckets finalized, arenas reset — isolating
//     the projection layer from the pattern-language scan logic. The
//     "pseudo" row keeps every state (one-state spans dominate, so Finalize
//     selects straight from the staged records); the "multi-state" row
//     stages into a few buckets and keeps only multi-state spans, timing the
//     gather path.
//
//  2. End-to-end miner runs of both languages for context (the scan
//     dominates total mine time).

#include <vector>

#include "bench_util.h"
#include "core/endpoint.h"
#include "core/projection.h"
#include "datagen/quest.h"
#include "miner/coincidence_growth.h"
#include "miner/endpoint_growth.h"
#include "obs/progress.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/memory.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace tpm;
using namespace tpm::bench;

namespace {

Cell CellFrom(const std::string& algo, const std::string& config,
              const MiningStats& stats, size_t patterns) {
  Cell c;
  c.algo = algo;
  c.config = config;
  c.seconds = stats.mine_seconds;  // growth phase; build is mode-independent
  c.patterns = patterns;
  c.memory_bytes = stats.peak_tracked_bytes;
  c.candidates = stats.candidates_checked;
  c.states = stats.states_created;
  c.dnf = stats.truncated;
  c.stop_reason = stats.stop_reason;
  c.metrics = stats.metrics;
  return c;
}

// Replays one round of realistic projection traffic: every endpoint item of
// every sequence is staged into a symbol-keyed bucket (grouped by sequence,
// as the engine's span scan guarantees), then every bucket finalizes into
// depth 1 with `select` and the staging arena resets — exactly the engine's
// node lifecycle, over the engine's bucket store.
template <typename SelectFn>
Cell ReplayProjection(const EndpointDatabase& edb, uint32_t num_buckets,
                      uint32_t stride, int rounds, const std::string& config,
                      SelectFn&& select) {
  MemoryTracker tracker;
  ProjectionArenas arenas(&tracker);
  uint64_t states = 0;
  uint64_t kept = 0;
  WallTimer timer;
  for (int r = 0; r < rounds; ++r) {
    std::vector<ProjectionBuilder> buckets(num_buckets);
    for (ProjectionBuilder& b : buckets) b.Init(stride, &arenas, 1);
    for (uint32_t s = 0; s < edb.size(); ++s) {
      const EndpointSequence& es = edb[s];
      for (uint32_t p = 0; p < es.num_items(); ++p) {
        ProjectionBuilder& b = buckets[es.item(p) % num_buckets];
        uint32_t* aux = b.Push(s, p, 0);
        for (uint32_t k = 0; k < stride; ++k) aux[k] = p + k;
        ++states;
      }
    }
    const Arena::Mark mark = arenas.depth(1).mark();
    for (ProjectionBuilder& b : buckets) kept += b.Finalize(select).num_states;
    arenas.staging().Reset();
    arenas.depth(1).Rewind(mark);
  }
  TPM_CHECK(kept > 0);
  Cell c;
  c.algo = "projection-replay";
  c.config = config;
  c.seconds = timer.ElapsedSeconds();
  c.memory_bytes = tracker.peak_bytes();
  c.states = states;
  return c;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarning);
  const double scale = BenchScale();
  const double kBudget = 120.0;

  PrintBanner(
      "Micro: arena-backed projection layer",
      "projection replay cost, end-to-end mines, observability and "
      "scheduler overheads",
      "fig1c substrate C8N200 seed 101, |D| = 4k, minsup 1%, budget 120s/run");

  QuestConfig config;
  config.num_sequences = static_cast<uint32_t>(4000 * scale);
  config.avg_intervals_per_sequence = 8.0;
  config.num_symbols = 200;
  config.seed = 101;
  auto db = GenerateQuest(config);
  TPM_CHECK_OK(db.status());

  std::vector<Cell> cells;

  // 1. Projection-layer replay.
  const EndpointDatabase edb = EndpointDatabase::FromDatabase(*db);
  const int kRounds = std::max(1, static_cast<int>(10 * scale));
  // The endpoint root scan — the highest-traffic projection of any run —
  // buckets every endpoint by symbol with one open obligation per state.
  const uint32_t kStride = 1;
  cells.push_back(ReplayProjection(
      edb, static_cast<uint32_t>(edb.num_symbols()), kStride, kRounds,
      "pseudo",
      [](const ProjectionBuilder::SpanView& v, std::vector<uint32_t>* keep) {
        for (uint32_t i = 0; i < v.count; ++i) keep->push_back(i);
      }));
  // Eight buckets give each sequence several states per bucket; dropping
  // the one-state spans leaves only gathered spans in the output.
  cells.push_back(ReplayProjection(
      edb, /*num_buckets=*/8, kStride, kRounds, "multi-state",
      [](const ProjectionBuilder::SpanView& v, std::vector<uint32_t>* keep) {
        if (v.count == 1) return;
        for (uint32_t i = 0; i < v.count; ++i) keep->push_back(i);
      }));

  // 2. End-to-end miner runs for context.
  MinerOptions options;
  options.min_support = 0.01;
  options.time_budget_seconds = kBudget;
  auto ep = MineEndpointGrowth(*db, options, GrowthConfig{});
  TPM_CHECK_OK(ep.status());
  cells.push_back(
      CellFrom("P-TPMiner/E", "pseudo", ep->stats, ep->patterns.size()));
  auto cp = MineCoincidenceGrowth(*db, options, GrowthConfig{});
  TPM_CHECK_OK(cp.status());
  cells.push_back(
      CellFrom("P-TPMiner/C", "pseudo", cp->stats, cp->patterns.size()));
  // 3. Observability overhead: the same endpoint run with and without a
  //    progress tracker at the default `tpm mine --progress` cadence (1s).
  //    The tracker's hot cost is TickWorker — a relaxed slot bump and one
  //    branch per expanded node, plus a clock read every 32nd node of
  //    worker 0 — so the guardrail is <5% growth-phase
  //    overhead (docs/OBSERVABILITY.md, "Progress overhead").
  options.progress = nullptr;
  auto off = MineEndpointGrowth(*db, options, GrowthConfig{});
  TPM_CHECK_OK(off.status());
  const size_t progress_off = cells.size();
  cells.push_back(
      CellFrom("P-TPMiner/E", "progress-off", off->stats, off->patterns.size()));

  uint64_t sink_calls = 0;
  obs::ProgressTracker tracker(
      1.0, [&sink_calls](const obs::ProgressSnapshot&) { ++sink_calls; });
  options.progress = &tracker;
  auto on = MineEndpointGrowth(*db, options, GrowthConfig{});
  TPM_CHECK_OK(on.status());
  options.progress = nullptr;
  cells.push_back(
      CellFrom("P-TPMiner/E", "progress-on", on->stats, on->patterns.size()));

  // 4. Parallel scaling: the endpoint mine at 1/2/4/8 workers (scheduler /
  //    worker / merger split, docs/ARCHITECTURE.md). Output is byte-identical
  //    across rows by construction — the interesting number is the wall-clock
  //    column. The substrate gets a scale floor so the single-thread run is
  //    long enough (0.1 s or more on a 4-core x86 container) to measure
  //    scheduling against even under CI's reduced TPM_BENCH_SCALE. A spin
  //    probe before and after the rows records how many cores the host
  //    really granted; CI asserts the 8-thread row at <=0.5x the
  //    single-thread row from BENCH_micro.json when both probes saw them.
  const uint32_t kProbeThreads = 4;
  const SpinProbe probe_before = RunSpinProbe(kProbeThreads);
  const size_t threads_base = cells.size();
  QuestConfig par_config = config;
  par_config.num_sequences =
      static_cast<uint32_t>(4000 * std::max(scale, 6.0));
  auto par_db = GenerateQuest(par_config);
  TPM_CHECK_OK(par_db.status());
  MinerOptions par_options;
  par_options.min_support = 0.005;
  par_options.time_budget_seconds = kBudget;
  par_options.steal = true;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    par_options.threads = threads;
    auto run = MineEndpointGrowth(*par_db, par_options, GrowthConfig{});
    TPM_CHECK_OK(run.status());
    cells.push_back(CellFrom("P-TPMiner/E", "threads-" + std::to_string(threads),
                             run->stats, run->patterns.size()));
  }

  const SpinProbe probe_after = RunSpinProbe(kProbeThreads);

  PrintTable(cells);
  if (cells[progress_off].seconds > 0.0) {
    std::printf(
        "ratio: progress on/off time=%.3fx (%llu snapshots emitted)\n",
        cells[progress_off + 1].seconds / cells[progress_off].seconds,
        static_cast<unsigned long long>(tracker.snapshots_emitted()));
  }
  for (size_t i = threads_base + 1; i < cells.size(); ++i) {
    if (cells[i].seconds > 0.0) {
      std::printf("ratio: e2e endpoint %s speedup=%.2fx vs threads-1\n",
                  cells[i].config.c_str(),
                  cells[threads_base].seconds / cells[i].seconds);
    }
  }
  for (const SpinProbe* probe : {&probe_before, &probe_after}) {
    std::printf(
        "host: %u-thread spin probe %s scaling: %.3fs alone, %.3fs together, "
        "effective parallelism %.2f\n",
        probe->threads, probe == &probe_before ? "before" : "after",
        probe->one_thread_seconds, probe->all_threads_seconds,
        probe->EffectiveParallelism());
  }
  cells.push_back(ProbeCell(probe_before, "probe-before"));
  cells.push_back(ProbeCell(probe_after, "probe-after"));
  WriteJsonRecords("micro", cells);
  return 0;
}
