#include "bench_util.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>
#include <thread>

#include "io/atomic_write.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tpm {
namespace bench {

std::string Cell::SecondsStr() const {
  if (dnf) return "DNF";
  return StringPrintf("%.3f", seconds);
}

namespace {

Cell MakeCell(const std::string& algo, const std::string& config,
              const MiningStats& stats, uint64_t patterns) {
  Cell c;
  c.algo = algo;
  c.config = config;
  c.seconds = stats.build_seconds + stats.mine_seconds;
  c.patterns = patterns;
  c.memory_bytes = stats.peak_tracked_bytes;
  c.candidates = stats.candidates_checked;
  c.states = stats.states_created;
  c.dnf = stats.truncated;
  c.stop_reason = stats.stop_reason;
  c.metrics = stats.metrics;
  return c;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += StringPrintf("\\u%04x", ch);
    } else {
      out += ch;
    }
  }
  out += '"';
  return out;
}

}  // namespace

Cell RunEndpoint(EndpointMiner* miner, const IntervalDatabase& db,
                 MinerOptions options, const std::string& config,
                 double budget_seconds) {
  options.time_budget_seconds = budget_seconds;
  auto result = miner->Mine(db, options);
  if (!result.ok()) {
    std::fprintf(stderr, "bench: %s failed: %s\n", miner->name().c_str(),
                 result.status().ToString().c_str());
    Cell c;
    c.algo = miner->name();
    c.config = config;
    c.dnf = true;
    return c;
  }
  return MakeCell(miner->name(), config, result->stats, result->patterns.size());
}

Cell RunCoincidence(CoincidenceMiner* miner, const IntervalDatabase& db,
                    MinerOptions options, const std::string& config,
                    double budget_seconds) {
  options.time_budget_seconds = budget_seconds;
  auto result = miner->Mine(db, options);
  if (!result.ok()) {
    std::fprintf(stderr, "bench: %s failed: %s\n", miner->name().c_str(),
                 result.status().ToString().c_str());
    Cell c;
    c.algo = miner->name();
    c.config = config;
    c.dnf = true;
    return c;
  }
  return MakeCell(miner->name(), config, result->stats, result->patterns.size());
}

void PrintBanner(const std::string& figure, const std::string& claim,
                 const std::string& setup) {
  std::printf("================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("paper claim : %s\n", claim.c_str());
  std::printf("setup       : %s\n", setup.c_str());
  std::printf("================================================================\n");
}

void PrintTable(const std::vector<Cell>& cells) {
  // Collect algorithms (stable order of first appearance) and configs.
  std::vector<std::string> algos;
  std::vector<std::string> configs;
  for (const Cell& c : cells) {
    if (std::find(algos.begin(), algos.end(), c.algo) == algos.end()) {
      algos.push_back(c.algo);
    }
    if (std::find(configs.begin(), configs.end(), c.config) == configs.end()) {
      configs.push_back(c.config);
    }
  }
  auto find_cell = [&](const std::string& algo,
                       const std::string& config) -> const Cell* {
    for (const Cell& c : cells) {
      if (c.algo == algo && c.config == config) return &c;
    }
    return nullptr;
  };

  std::printf("%-10s", "");
  for (const std::string& a : algos) std::printf(" | %-21s", a.c_str());
  std::printf("\n%-10s", "config");
  for (size_t i = 0; i < algos.size(); ++i) std::printf(" | %9s %11s", "time(s)", "patterns");
  std::printf("\n");
  for (const std::string& cfg : configs) {
    std::printf("%-10s", cfg.c_str());
    for (const std::string& a : algos) {
      const Cell* c = find_cell(a, cfg);
      if (c == nullptr) {
        std::printf(" | %9s %11s", "-", "-");
      } else {
        std::printf(" | %9s %11llu", c->SecondsStr().c_str(),
                    static_cast<unsigned long long>(c->patterns));
      }
    }
    std::printf("\n");
  }

  std::printf(
      "\ncsv: algo,config,seconds,patterns,memory_bytes,candidates,states,dnf,"
      "stop_reason\n");
  for (const Cell& c : cells) {
    std::printf("csv: %s,%s,%.4f,%llu,%zu,%llu,%llu,%d,%s\n", c.algo.c_str(),
                c.config.c_str(), c.seconds,
                static_cast<unsigned long long>(c.patterns), c.memory_bytes,
                static_cast<unsigned long long>(c.candidates),
                static_cast<unsigned long long>(c.states), c.dnf ? 1 : 0,
                StopReasonName(c.stop_reason));
  }
  std::printf("\n");
}

void WriteJsonRecords(const std::string& name, const std::vector<Cell>& cells) {
  // Benches are single-threaded drivers and never call setenv.
  const char* dir =
      std::getenv("TPM_BENCH_JSON_DIR");  // NOLINT(concurrency-mt-unsafe)
  const std::string path =
      std::string(dir != nullptr ? dir : ".") + "/BENCH_" + name + ".json";
  std::ostringstream out;
  out << "[\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "  {\"algo\": " << JsonQuote(c.algo)
        << ", \"config\": " << JsonQuote(c.config)
        << ", \"seconds\": " << StringPrintf("%.6f", c.seconds)
        << ", \"patterns\": " << c.patterns
        << ", \"memory_bytes\": " << c.memory_bytes
        << ", \"candidates\": " << c.candidates << ", \"states\": " << c.states
        << ", \"dnf\": " << (c.dnf ? "true" : "false")
        << ", \"stop_reason\": " << JsonQuote(StopReasonName(c.stop_reason))
        << ", \"metrics\": " << c.metrics.ToJson();
    if (c.effective_parallelism > 0.0) {
      out << ", \"host.effective_parallelism\": "
          << StringPrintf("%.3f", c.effective_parallelism);
    }
    out << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "]\n";
  if (Status st = WriteFileAtomic(path, out.str()); !st.ok()) {
    std::fprintf(stderr, "bench: %s (skipping)\n", st.ToString().c_str());
    return;
  }
  std::printf("json: %s\n", path.c_str());
}

namespace {

// About 70 ms of dependent integer work on one x86 core; the result escapes
// through a volatile so the loop cannot be folded away.
double SpinOnce() {
  WallTimer timer;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < (uint64_t{1} << 25); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile uint64_t sink = x;
  (void)sink;
  return timer.ElapsedSeconds();
}

}  // namespace

double SpinProbe::EffectiveParallelism() const {
  return all_threads_seconds > 0.0
             ? threads * one_thread_seconds / all_threads_seconds
             : 0.0;
}

SpinProbe RunSpinProbe(uint32_t threads) {
  SpinProbe probe;
  probe.threads = threads;
  probe.one_thread_seconds = SpinOnce();
  WallTimer timer;
  std::vector<std::thread> crew;
  crew.reserve(threads);
  for (uint32_t i = 0; i < threads; ++i) crew.emplace_back([] { SpinOnce(); });
  for (std::thread& t : crew) t.join();
  probe.all_threads_seconds = timer.ElapsedSeconds();
  return probe;
}

Cell ProbeCell(const SpinProbe& probe, const std::string& label) {
  Cell c;
  c.algo = "host";
  c.config = label;
  c.seconds = probe.all_threads_seconds;
  c.effective_parallelism = probe.EffectiveParallelism();
  return c;
}

double BenchScale() {
  // Benches are single-threaded drivers and never call setenv.
  const char* env =
      std::getenv("TPM_BENCH_SCALE");  // NOLINT(concurrency-mt-unsafe)
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

}  // namespace bench
}  // namespace tpm
