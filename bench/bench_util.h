// Shared harness for the figure/table reproduction benchmarks.
//
// Each bench binary regenerates one figure or table of the paper's
// evaluation (see EXPERIMENTS.md for the mapping and the recorded results).
// Output is a self-describing aligned table; a trailing "csv:" block gives
// machine-readable rows for plotting.

#pragma once


#include <cstdio>
#include <string>
#include <vector>

#include "core/database.h"
#include "miner/miner.h"
#include "obs/metrics.h"
#include "util/guard.h"

namespace tpm {
namespace bench {

/// Outcome of one (algorithm, configuration) cell.
struct Cell {
  std::string algo;
  std::string config;    // x-axis value, e.g. "1.0%" or "D=4k"
  double seconds = 0.0;
  uint64_t patterns = 0;
  size_t memory_bytes = 0;
  uint64_t candidates = 0;
  uint64_t states = 0;
  bool dnf = false;      // truncated or failed before completing
  StopReason stop_reason = StopReason::kNone;  // why, when dnf is true
  obs::MetricsSnapshot metrics;  // per-run registry delta (prune.*, search.*)
  double effective_parallelism = 0.0;  // spin-probe rows only (ProbeCell)

  std::string SecondsStr() const;
};

/// Runs an endpoint miner once and captures the cell.
Cell RunEndpoint(EndpointMiner* miner, const IntervalDatabase& db,
                 MinerOptions options, const std::string& config,
                 double budget_seconds);

/// Runs a coincidence miner once and captures the cell.
Cell RunCoincidence(CoincidenceMiner* miner, const IntervalDatabase& db,
                    MinerOptions options, const std::string& config,
                    double budget_seconds);

/// Prints the experiment banner.
void PrintBanner(const std::string& figure, const std::string& claim,
                 const std::string& setup);

/// Prints cells as an aligned table grouped by config, one column block per
/// algorithm, followed by a csv block.
void PrintTable(const std::vector<Cell>& cells);

/// Writes cells (including each cell's metrics snapshot) as a JSON array to
/// BENCH_<name>.json in TPM_BENCH_JSON_DIR (default: current directory).
/// Failures only warn: record files must never break a bench run.
void WriteJsonRecords(const std::string& name, const std::vector<Cell>& cells);

/// A fixed spin workload timed on one thread, then on `threads` threads at
/// once. A host that grants the run `threads` cores takes the same time for
/// both, so threads × one / all is the number of cores it actually got.
struct SpinProbe {
  uint32_t threads = 0;
  double one_thread_seconds = 0.0;
  double all_threads_seconds = 0.0;

  double EffectiveParallelism() const;
};

SpinProbe RunSpinProbe(uint32_t threads);

/// The probe as a record row: algo "host", config `label`, seconds the
/// all-threads time, and "host.effective_parallelism" in the JSON record.
Cell ProbeCell(const SpinProbe& probe, const std::string& label);

/// Reads TPM_BENCH_SCALE (default 1.0): multiplies dataset sizes so the
/// suite can be shrunk for smoke runs or grown for slower machines.
double BenchScale();

}  // namespace bench
}  // namespace tpm

