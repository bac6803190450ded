// tpm_trace: the traced half of the batch-mining benchmark (perfbench/).
//
// Runs one `tpm mine <db> --output=<file>` job in-process, the same steps in
// the same order as the CLI, with a span around each layer call:
//
//   job
//   ├── io.load          LoadDatabase()
//   ├── miner.mine       MakePTPMiner{E,C}()->Mine()
//   ├── miner.sort       MiningResult::SortCanonically()
//   ├── analysis.topk    TopKBySupport()            (only with --top)
//   ├── core.render      pattern.ToString(dict) for every output line
//   └── io.write         WriteFileAtomic()
//
// With --probes it then times, outside the job, the calls a job makes only
// from inside Mine(): core.repr_build (the language representation's
// FromDatabase) and, when --threads > 1, scheduler.serial_mine (the same
// Mine() at one thread).
//
// Spans are kept in memory and written to --spans-out at the end. Stdout
// gets one JSON object with the job's MiningStats and metric counts.
// perfbench/run.py drives this binary and turns both into per-layer metrics.
//
//   tpm_trace --input=db.tpmb --type=coincidence --minsup=0.01 --threads=3
//             --steal --top=10 --output=out.txt --spans-out=spans.json --probes

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/postprocess.h"
#include "core/coincidence.h"
#include "core/endpoint.h"
#include "io/atomic_write.h"
#include "io/loader.h"
#include "miner/miner.h"
#include "obs/metrics.h"
#include "obs/stats_domain.h"
#include "util/flags.h"
#include "util/guard.h"
#include "util/macros.h"

namespace tpm {
namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the span list, -1 for a root
  std::string job;
};

// In-memory span recorder; nothing is written until Dump().
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int64_t Begin(const std::string& name, int64_t parent, const std::string& job) {
    spans_.push_back(Span{name, Now(), 0, parent, job});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t id) { spans_[static_cast<size_t>(id)].end_ns = Now(); }

  bool Dump(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << i << ",\"name\":\""
          << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"job\":\"" << s.job << "\"}";
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Runs `fn` inside a span named `name` and returns what it returns.
template <typename Fn>
auto Traced(Tracer* tracer, const std::string& name, int64_t parent,
            const std::string& job, Fn&& fn) {
  const int64_t id = tracer->Begin(name, parent, job);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    tracer->End(id);
  } else {
    auto value = fn();
    tracer->End(id);
    return value;
  }
}

struct Config {
  std::string input;
  std::string type = "endpoint";
  double minsup = 0.01;
  int64_t threads = 1;
  bool steal = false;
  int64_t top = 0;
  std::string output;
  std::string spans_out;
  bool probes = false;
};

std::unique_ptr<EndpointMiner> MakeMiner(const EndpointPattern*) {
  return MakePTPMinerE();
}
std::unique_ptr<CoincidenceMiner> MakeMiner(const CoincidencePattern*) {
  return MakePTPMinerC();
}

// The Mine() call with the options `tpm mine` passes: a cancellation token
// and the run's stats domain.
template <typename PatternT>
auto MineWith(const Config& cfg, const IntervalDatabase& db, int64_t threads,
              obs::StatsDomain* domain) {
  CancellationToken cancellation;
  MinerOptions options;
  options.min_support = cfg.minsup;
  options.threads = static_cast<uint32_t>(threads);
  options.steal = cfg.steal;
  options.cancellation = &cancellation;
  options.stats_domain = domain;
  return MakeMiner(static_cast<const PatternT*>(nullptr))->Mine(db, options);
}

void PrintJob(const MiningStats& s, uint64_t lines) {
  const obs::MetricsSnapshot& m = s.metrics;
  const obs::HistogramSample* units = m.FindHistogram("miner.worker.units");
  const obs::HistogramSample* nodes = m.FindHistogram("miner.worker.nodes");
  std::printf(
      "{\"build_s\": %.9f, \"search_s\": %.9f, \"patterns\": %" PRIu64
      ", \"nodes\": %" PRIu64 ", \"candidates\": %" PRIu64
      ", \"states\": %" PRIu64
      ", \"peak_tracked_bytes\": %zu, \"arena_peak_bytes\": %zu"
      ", \"pair_hits\": %" PRIu64 ", \"postfix_hits\": %" PRIu64
      ", \"validity_hits\": %" PRIu64 ", \"flight_events\": %" PRIu64
      ", \"worker_units\": %" PRIu64 ", \"lines\": %" PRIu64
      ", \"worker_nodes\": [",
      s.build_seconds, s.mine_seconds, s.patterns_found, s.nodes_expanded,
      s.candidates_checked, s.states_created, s.peak_tracked_bytes,
      s.arena_peak_bytes, m.CounterValue("prune.pair.hits"),
      m.CounterValue("prune.postfix.hits"),
      m.CounterValue("prune.validity.hits"),
      m.CounterValue("obs.flight.events"),
      units != nullptr ? units->count : uint64_t{0}, lines);
  if (nodes != nullptr) {
    for (size_t i = 0; i < nodes->counts.size(); ++i) {
      std::printf("%s%" PRIu64, i == 0 ? "" : ", ", nodes->counts[i]);
    }
  }
  std::printf("]}\n");
}

// One `tpm mine` job, in the order CmdMine/FinishMine/EmitPatterns run it,
// then the probes.
template <typename PatternT, typename RepT>
Status Run(const Config& cfg, Tracer* tracer) {
  const std::string job = "job";
  const int64_t root = tracer->Begin("job", -1, job);
  obs::StatsDomain domain("mine");
  domain.RecordEvent("load.begin");
  auto db = Traced(tracer, "io.load", root, job,
                   [&] { return LoadDatabase(cfg.input); });
  if (!db.ok()) return db.status();
  domain.RecordEvent("load.done", db->size(), db->TotalIntervals());

  auto result = Traced(tracer, "miner.mine", root, job, [&] {
    return MineWith<PatternT>(cfg, *db, cfg.threads, &domain);
  });
  if (!result.ok()) return result.status();
  if (result->stats.truncated) return Status::Internal("mining was truncated");
  Traced(tracer, "miner.sort", root, job, [&] { result->SortCanonically(); });

  std::vector<MinedPattern<PatternT>> patterns = std::move(result->patterns);
  if (cfg.top > 0) {
    patterns = Traced(tracer, "analysis.topk", root, job, [&] {
      return TopKBySupport(std::move(patterns), static_cast<size_t>(cfg.top));
    });
  }
  const std::string text = Traced(tracer, "core.render", root, job, [&] {
    std::ostringstream file;
    for (const auto& mp : patterns) {
      file << mp.support << "\t" << mp.pattern.ToString(db->dict()) << "\n";
    }
    return file.str();
  });
  TPM_RETURN_NOT_OK(Traced(tracer, "io.write", root, job, [&] {
    return WriteFileAtomic(cfg.output, text);
  }));
  tracer->End(root);

  if (cfg.probes) {
    const std::string probe = "probe";
    Traced(tracer, "core.repr_build", -1, probe,
           [&] { return RepT::FromDatabase(*db).size(); });
    if (cfg.threads > 1) {
      obs::StatsDomain serial_domain("mine");
      auto serial = Traced(tracer, "scheduler.serial_mine", -1, probe, [&] {
        return MineWith<PatternT>(cfg, *db, 1, &serial_domain);
      });
      if (!serial.ok()) return serial.status();
    }
  }
  PrintJob(result->stats, patterns.size());
  return Status::OK();
}

int Main(int argc, const char* const* argv) {
  Config cfg;
  FlagParser p;
  p.AddString("input", &cfg.input, "database file (.tisd/.csv/.tpmb)");
  p.AddString("type", &cfg.type, "pattern language: endpoint | coincidence");
  p.AddDouble("minsup", &cfg.minsup, "min support, as for tpm mine");
  p.AddInt64("threads", &cfg.threads, "miner worker threads");
  p.AddBool("steal", &cfg.steal, "split heavy units into sub-units");
  p.AddInt64("top", &cfg.top, "keep only the K highest-support patterns");
  p.AddString("output", &cfg.output, "pattern output file");
  p.AddString("spans-out", &cfg.spans_out, "write the spans here at the end");
  p.AddBool("probes", &cfg.probes, "also time FromDatabase and a 1-thread Mine()");
  auto positional = p.Parse(argc, argv);
  if (!positional.ok() || !positional->empty() || cfg.input.empty() ||
      cfg.output.empty() || cfg.spans_out.empty() || cfg.threads < 1 ||
      cfg.top < 0 || (cfg.type != "endpoint" && cfg.type != "coincidence")) {
    std::fprintf(stderr, "usage: tpm_trace [flags]\n%s", p.Usage().c_str());
    return 1;
  }
  Tracer tracer;
  const Status st = cfg.type == "endpoint"
                        ? Run<EndpointPattern, EndpointDatabase>(cfg, &tracer)
                        : Run<CoincidencePattern, CoincidenceDatabase>(cfg, &tracer);
  if (!st.ok()) {
    std::fprintf(stderr, "tpm_trace: %s\n", st.ToString().c_str());
    return 1;
  }
  if (!tracer.Dump(cfg.spans_out)) {
    std::fprintf(stderr, "tpm_trace: cannot write %s\n", cfg.spans_out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tpm

int main(int argc, char** argv) { return tpm::Main(argc, argv); }
