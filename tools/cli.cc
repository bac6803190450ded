#include "cli.h"

#include <cmath>
#include <cstdint>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <sstream>

#include "analysis/postprocess.h"
#include "analysis/profile.h"
#include "analysis/render.h"
#include "analysis/report.h"
#include "analysis/rules.h"
#include "core/validate.h"
#include "datagen/quest.h"
#include "datagen/realistic.h"
#include "io/atomic_write.h"
#include "io/checkpoint.h"
#include "io/loader.h"
#include "miner/miner.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/stats_domain.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/guard.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace tpm {

namespace {

constexpr char kUsage[] =
    "usage: tpm <command> [flags]\n"
    "\n"
    "commands:\n"
    "  stats <db>            print dataset statistics\n"
    "  profile <db>          symbol profiles + Allen-relation mix\n"
    "  mine <db> [flags]     mine temporal patterns (--threads=N parallel)\n"
    "  rules <db> [flags]    mine endpoint patterns and derive rules\n"
    "  generate [flags]      synthesize a dataset\n"
    "  convert <in> <out>    transcode between .tisd/.csv/.tpmb\n"
    "  check <db>            validate structural invariants (deep check)\n"
    "  report <file>         summarize a metrics / bench / postmortem JSON\n"
    "  faults                list fault-injection sites (TPM_FAULT=<site>:<n>)\n"
    "\n"
    "exit codes: 0 complete, 1 usage/error, 2 load error, 3 truncated run\n"
    "(budget exhausted or interrupted; partial output was written), 4 fault\n"
    "abnormal mine exits (3/4) also write a flight-recorder postmortem\n"
    "(tpm-postmortem.json; see `tpm mine --help`, --postmortem-out) and,\n"
    "with --checkpoint-out set, a resumable checkpoint (--resume=<path>)\n"
    "\n"
    "run `tpm <command> --help` for command flags\n";

// Exit-code contract (see kUsage and docs/ROBUSTNESS.md).
constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitLoadError = 2;
constexpr int kExitTruncated = 3;
constexpr int kExitFault = 4;

// Maps a failure Status to its contract exit code: injected or environmental
// resource faults take precedence over the stage's fallback code so the CI
// fault matrix can assert on "4" regardless of which layer the site lives in.
int ExitCodeFor(const Status& status, int fallback) {
  if (fault::InjectionCount() > 0) return kExitFault;
  if (status.code() == StatusCode::kResourceExhausted) return kExitFault;
  return fallback;
}

int Fail(const Status& status, int code = kExitError) {
  std::cerr << "tpm: " << status.ToString() << "\n";
  return ExitCodeFor(status, code);
}

// Process-wide token wired to SIGINT/SIGTERM while `mine` runs, so an
// interrupted run unwinds cooperatively and still writes its outputs.
CancellationToken* GlobalCancellation() {
  static CancellationToken token;
  return &token;
}

extern "C" void TpmHandleTerminationSignal(int) {
  GlobalCancellation()->Cancel();  // async-signal-safe: one atomic store
}

// RAII (un)installation so in-process callers (tests) get default signal
// behavior back after the governed section.
class ScopedSignalCancellation {
 public:
  ScopedSignalCancellation() {
    GlobalCancellation()->Reset();
    prev_int_ = std::signal(SIGINT, TpmHandleTerminationSignal);
    prev_term_ = std::signal(SIGTERM, TpmHandleTerminationSignal);
  }
  ~ScopedSignalCancellation() {
    std::signal(SIGINT, prev_int_);
    std::signal(SIGTERM, prev_term_);
  }
  ScopedSignalCancellation(const ScopedSignalCancellation&) = delete;
  ScopedSignalCancellation& operator=(const ScopedSignalCancellation&) = delete;

 private:
  void (*prev_int_)(int);
  void (*prev_term_)(int);
};

// Observability flags shared by `mine` and `generate`: metrics snapshot and
// Chrome-trace dumps.
struct ObsFlags {
  std::string metrics_out;
  std::string metrics_format = "json";
  std::string trace_out;

  void Register(FlagParser* p) {
    p->AddString("metrics-out", &metrics_out,
                 "write a metrics snapshot to this file");
    p->AddString("metrics-format", &metrics_format,
                 "metrics snapshot format: json | prom");
    p->AddString("trace-out", &trace_out,
                 "write a Chrome trace_event JSON file (chrome://tracing)");
  }

  Status Validate() const {
    if (metrics_format != "json" && metrics_format != "prom") {
      return Status::InvalidArgument("--metrics-format must be json or prom (got " +
                                     metrics_format + ")");
    }
    return Status::OK();
  }

  /// Call before the instrumented work so spans are captured.
  void Begin() const {
    if (!trace_out.empty()) {
      obs::ClearTrace();
      obs::SetTraceEnabled(true);
    }
  }

  /// Writes the requested output files after the work completed. Atomic
  /// (temp-then-rename) so an interrupted run never leaves half a snapshot.
  Status Finish() const {
    if (!metrics_out.empty()) {
      const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
      TPM_RETURN_NOT_OK(WriteFileAtomic(
          metrics_out,
          metrics_format == "prom" ? snap.ToPrometheus() : snap.ToJson()));
    }
    if (!trace_out.empty()) {
      obs::SetTraceEnabled(false);
      Status st = obs::WriteChromeTraceFile(trace_out);
      if (!st.ok()) return st;
    }
    return Status::OK();
  }
};

struct MineFlags {
  std::string type = "endpoint";
  std::string algo = "ptpminer";
  double minsup = 0.01;
  int64_t max_items = 0;
  int64_t max_length = 0;
  int64_t window = 0;
  int64_t top = 0;
  bool closed = false;
  bool maximal = false;
  bool describe = false;
  bool merge_conflicts = false;
  double budget = 0.0;
  int64_t memory_budget_mb = 0;
  std::string on_error = "fail";
  std::string output;
  bool no_pair_pruning = false;
  bool no_postfix_pruning = false;
  bool no_validity_pruning = false;
  int64_t threads = 1;
  bool steal = false;
  double progress = -1.0;  // < 0 = off; bare --progress means 1s cadence
  std::string postmortem_out = "auto";
  std::string checkpoint_out = "off";
  double checkpoint_every = 30.0;
  std::string resume;
  ObsFlags obs;
  bool help = false;

  void Register(FlagParser* p) {
    p->AddString("type", &type, "pattern language: endpoint | coincidence");
    p->AddString("algo", &algo,
                 "ptpminer | tprefixspan | levelwise (endpoint) | ctminer "
                 "(coincidence)");
    p->AddDouble("minsup", &minsup, "min support: fraction (0,1] or count > 1");
    p->AddInt64("max-items", &max_items, "max endpoints/symbols per pattern");
    p->AddInt64("max-length", &max_length, "max slices/coincidences per pattern");
    p->AddInt64("window", &window, "max occurrence time window (0 = off)");
    p->AddInt64("top", &top,
                "keep only the K highest-support patterns; growth engines "
                "prune their search at the K-th best support found so far "
                "(not with --closed/--maximal or checkpointing)");
    p->AddBool("closed", &closed, "report closed patterns only");
    p->AddBool("maximal", &maximal, "report maximal patterns only");
    p->AddBool("describe", &describe, "render Allen-relation descriptions");
    p->AddBool("merge-conflicts", &merge_conflicts,
               "repair same-symbol conflicts on load");
    p->AddDouble("budget", &budget, "wall-clock budget in seconds (0 = off)");
    p->AddInt64("memory-budget-mb", &memory_budget_mb,
                "logical-byte memory budget in MiB (0 = off)");
    p->AddString("on-error", &on_error,
                 "malformed input lines: fail | skip (text formats)");
    p->AddString("output", &output, "write patterns to this file instead of stdout");
    p->AddBool("no-pair-pruning", &no_pair_pruning,
               "disable P-TPMiner pair pruning");
    p->AddBool("no-postfix-pruning", &no_postfix_pruning,
               "disable P-TPMiner postfix pruning");
    p->AddBool("no-validity-pruning", &no_validity_pruning,
               "disable P-TPMiner validity pruning");
    p->AddInt64("threads", &threads,
                "worker threads for growth-engine mining (1-64; output is "
                "byte-identical for any value)");
    p->AddBool("steal", &steal,
               "split heavyweight subtrees into stealable sub-units "
               "(growth engines with --threads > 1)");
    p->AddOptionalDouble("progress", &progress, 1.0,
                         "print live progress/ETA to stderr every N seconds "
                         "(bare --progress = 1s)");
    p->AddString("postmortem-out", &postmortem_out,
                 "flight-recorder postmortem on abnormal exit (3/4): auto "
                 "(tpm-postmortem.json in cwd) | off | <path>");
    p->AddString("checkpoint-out", &checkpoint_out,
                 "periodic resumable mining checkpoint: off (default) | auto "
                 "(tpm-checkpoint.tpmc in cwd) | <path>");
    p->AddDouble("checkpoint-every", &checkpoint_every,
                 "min seconds between checkpoint writes (0 = every completed "
                 "bucket)");
    p->AddString("resume", &resume,
                 "resume mining from a checkpoint written by --checkpoint-out");
    obs.Register(p);
    p->AddBool("help", &help, "show this help");
  }

  Status Validate() const {
    if (on_error != "fail" && on_error != "skip") {
      return Status::InvalidArgument("--on-error must be fail or skip (got " +
                                     on_error + ")");
    }
    if (!std::isfinite(minsup)) {
      return Status::InvalidArgument("--minsup must be a finite number");
    }
    // Each `!(x >= 0.0)` below also rejects NaN, which compares false with
    // everything and would otherwise read as "off".
    if (!(budget >= 0.0)) {
      return Status::InvalidArgument("--budget must be >= 0 seconds");
    }
    // ToOptions() scales this to bytes in a size_t; a larger value would
    // overflow to a tiny budget and truncate the run.
    if (memory_budget_mb < 0 ||
        static_cast<uint64_t>(memory_budget_mb) > (SIZE_MAX >> 20)) {
      return Status::InvalidArgument(
          "--memory-budget-mb must be between 0 and " +
          std::to_string(SIZE_MAX >> 20));
    }
    // ToOptions() narrows these to uint32_t fields; a negative value would
    // wrap to ~4 billion (an effectively unlimited cap) and a larger one to
    // its low 32 bits, instead of failing loudly.
    if (max_items < 0 || max_items > UINT32_MAX) {
      return Status::InvalidArgument("--max-items must be between 0 and " +
                                     std::to_string(UINT32_MAX));
    }
    if (max_length < 0 || max_length > UINT32_MAX) {
      return Status::InvalidArgument("--max-length must be between 0 and " +
                                     std::to_string(UINT32_MAX));
    }
    if (window < 0) return Status::InvalidArgument("--window must be >= 0");
    if (top < 0) return Status::InvalidArgument("--top must be >= 0");
    // Hard range, not a clamp: --threads=0 or a negative/absurd count is a
    // typo'd invocation, and silently mining single-threaded would hide it.
    if (threads < 1 || threads > 64) {
      return Status::InvalidArgument(
          "--threads must be between 1 and 64 (got " +
          std::to_string(threads) + ")");
    }
    // -1.0 is the internal "off" sentinel; any explicitly passed negative
    // interval is a mistake.
    if (!(progress >= 0.0) && progress != -1.0) {
      return Status::InvalidArgument("--progress interval must be >= 0 seconds");
    }
    if (postmortem_out.empty()) {
      return Status::InvalidArgument(
          "--postmortem-out needs auto, off, or a path");
    }
    if (checkpoint_out.empty()) {
      return Status::InvalidArgument(
          "--checkpoint-out needs auto, off, or a path");
    }
    if (!(checkpoint_every >= 0.0)) {
      return Status::InvalidArgument(
          "--checkpoint-every must be >= 0 seconds");
    }
    return obs.Validate();
  }

  MinerOptions ToOptions() const {
    MinerOptions options;
    options.min_support = minsup;
    options.max_items = static_cast<uint32_t>(max_items);
    options.max_length = static_cast<uint32_t>(max_length);
    options.max_window = window;
    options.time_budget_seconds = budget;
    options.memory_budget_bytes = static_cast<size_t>(memory_budget_mb) << 20;
    options.pair_pruning = !no_pair_pruning;
    options.postfix_pruning = !no_postfix_pruning;
    options.validity_pruning = !no_validity_pruning;
    options.threads = static_cast<uint32_t>(threads);
    options.steal = steal;
    return options;
  }
};

Result<IntervalDatabase> LoadForCli(const std::string& path, bool merge,
                                    bool skip_bad_lines = false) {
  TextReadOptions options;
  options.merge_conflicts = merge;
  options.on_error =
      skip_bad_lines ? TextErrorMode::kSkipLine : TextErrorMode::kFail;
  return LoadDatabase(path, options);
}

int CmdStats(int argc, const char* const* argv, std::ostream& out) {
  FlagParser parser;
  bool merge = false;
  parser.AddBool("merge-conflicts", &merge, "repair same-symbol conflicts");
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  if (positional->size() != 1) {
    return Fail(Status::InvalidArgument("stats needs exactly one <db> path"));
  }
  auto db = LoadForCli((*positional)[0], merge);
  if (!db.ok()) return Fail(db.status(), kExitLoadError);
  out << db->ComputeStats().ToString() << "\n";
  return 0;
}

template <typename PatternT>
Status EmitPatterns(std::vector<MinedPattern<PatternT>> patterns,
                    const Dictionary& dict, const MineFlags& flags,
                    const MiningStats& stats, std::ostream& out) {
  if (flags.closed) patterns = FilterClosed(std::move(patterns));
  if (flags.maximal) patterns = FilterMaximal(std::move(patterns));
  if (flags.top > 0) {
    patterns = TopKBySupport(std::move(patterns), static_cast<size_t>(flags.top));
  }

  std::ostringstream file;
  std::ostream* sink = flags.output.empty() ? &out : &file;
  for (const auto& mp : patterns) {
    *sink << mp.support << "\t" << mp.pattern.ToString(dict);
    if (flags.describe) *sink << "\t" << DescribeArrangement(mp.pattern, dict);
    *sink << "\n";
  }
  if (!flags.output.empty()) {
    // Move the buffer out: a copy would hold the whole output twice.
    TPM_RETURN_NOT_OK(WriteFileAtomic(flags.output, std::move(file).str()));
  }
  out << "# " << patterns.size() << " patterns, " << stats.ToString() << "\n";
  return Status::OK();
}

int CmdProfile(int argc, const char* const* argv, std::ostream& out) {
  FlagParser parser;
  bool merge = false;
  int64_t top = 10;
  parser.AddBool("merge-conflicts", &merge, "repair same-symbol conflicts");
  parser.AddInt64("top", &top, "number of symbols to list");
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  if (positional->size() != 1) {
    return Fail(Status::InvalidArgument("profile needs exactly one <db> path"));
  }
  if (top < 0) {
    return Fail(Status::InvalidArgument("--top must be >= 0"));
  }
  auto db = LoadForCli((*positional)[0], merge);
  if (!db.ok()) return Fail(db.status(), kExitLoadError);
  out << ProfileReport(*db, static_cast<size_t>(top));
  return 0;
}

// Persists the flight-recorder postmortem for an abnormal mine exit (3/4).
// "auto" writes tpm-postmortem.json in the working directory, "off"
// disables, anything else is the destination path. A write failure only
// warns — the postmortem must never mask the run's own exit code. When the
// run saved a checkpoint, its path is logged alongside (and embedded in)
// the postmortem so the two artifacts cross-reference. `metrics` is what
// the postmortem reports: a truncated run's merged metrics, or the domain's
// own snapshot on a fault exit.
void WritePostmortem(const obs::StatsDomain& domain,
                     const obs::MetricsSnapshot& metrics,
                     const MineFlags& flags, const char* outcome,
                     const std::string& detail,
                     const std::string& checkpoint_path) {
  if (!checkpoint_path.empty()) {
    std::cerr << "tpm: checkpoint saved to " << checkpoint_path
              << " (resume with --resume=" << checkpoint_path << ")\n";
  }
  if (flags.postmortem_out == "off") return;
  const std::string path = flags.postmortem_out == "auto"
                               ? std::string("tpm-postmortem.json")
                               : flags.postmortem_out;
  const Status st = WriteFileAtomic(
      path,
      obs::PostmortemJson(domain, metrics, outcome, detail, checkpoint_path));
  if (!st.ok()) {
    std::cerr << "tpm: postmortem write failed: " << st.ToString() << "\n";
  } else {
    std::cerr << "tpm: wrote postmortem to " << path << "\n";
  }
}

// Maps a failed Status to its exit code; fault exits (code 4) also get a
// postmortem — the flight recorder holds the events leading up to the
// injected/environmental failure.
int FailWithPostmortem(const Status& status, const MineFlags& flags,
                       const obs::StatsDomain& domain, int fallback,
                       const std::string& checkpoint_path = std::string()) {
  const int code = Fail(status, fallback);
  if (code == kExitFault) {
    WritePostmortem(domain, domain.Snapshot(), flags, "fault",
                    status.ToString(), checkpoint_path);
  }
  return code;
}

// Shared tail of `mine` for both pattern languages: sort, emit (atomically
// when --output is set), flush observability files, and map a truncated run
// to its contract exit code — after the partial results (and, for a
// truncated run, the postmortem) are on disk. Output-stage failures go
// through FailWithPostmortem: a fault injected while writing still owes the
// postmortem artifact.
template <typename ResultT>
int FinishMine(ResultT result, const IntervalDatabase& db,
               const MineFlags& flags, const obs::StatsDomain& domain,
               std::ostream& out, const std::string& checkpoint_path) {
  result.SortCanonically();
  const MiningStats stats = result.stats;
  if (Status st = EmitPatterns(std::move(result.patterns), db.dict(), flags,
                               stats, out);
      !st.ok()) {
    return FailWithPostmortem(st, flags, domain, kExitError, checkpoint_path);
  }
  if (Status st = flags.obs.Finish(); !st.ok()) {
    return FailWithPostmortem(st, flags, domain, kExitError, checkpoint_path);
  }
  if (stats.truncated) {
    // The domain holds only the preamble: every work item charges its own
    // tally, which the run merged into stats.metrics.
    WritePostmortem(domain, stats.metrics, flags, "truncated",
                    StopReasonName(stats.stop_reason), checkpoint_path);
    std::cerr << "tpm: run truncated (" << StopReasonName(stats.stop_reason)
              << "); partial results were written\n";
    return kExitTruncated;
  }
  return kExitOk;
}

// A mining failure still attempts the observability outputs so a fault run
// leaves usable metrics behind, then maps the Status to an exit code.
int FailMine(const Status& status, const MineFlags& flags,
             const obs::StatsDomain& domain,
             const std::string& checkpoint_path = std::string()) {
  (void)flags.obs.Finish();
  return FailWithPostmortem(status, flags, domain, kExitError,
                            checkpoint_path);
}

int CmdMine(int argc, const char* const* argv, std::ostream& out) {
  FlagParser parser;
  MineFlags flags;
  flags.Register(&parser);
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  if (flags.help) {
    out << "usage: tpm mine <db> [flags]\n" << parser.Usage();
    return 0;
  }
  if (positional->size() != 1) {
    return Fail(Status::InvalidArgument("mine needs exactly one <db> path"));
  }
  if (Status st = flags.Validate(); !st.ok()) return Fail(st);
  if (flags.algo == "levelwise" &&
      (flags.checkpoint_out != "off" || !flags.resume.empty())) {
    return Fail(Status::InvalidArgument(
        "--algo=levelwise does not checkpoint; drop --checkpoint-out/--resume "
        "or use a growth miner"));
  }
  flags.obs.Begin();

  // The whole run — load included — charges one stats domain so any
  // abnormal exit (3/4) can dump a flight-recorder postmortem; the miner
  // folds the domain's delta into the global registry itself, so
  // --metrics-out still sees everything.
  obs::StatsDomain domain("mine");
  domain.RecordEvent("load.begin");
  auto db = LoadForCli((*positional)[0], flags.merge_conflicts,
                       flags.on_error == "skip");
  if (!db.ok()) {
    return FailWithPostmortem(db.status(), flags, domain, kExitLoadError);
  }
  domain.RecordEvent("load.done", db->size(), db->TotalIntervals());

  // From here the run is governed: SIGINT/SIGTERM cancel cooperatively and
  // the partial results still flow through FinishMine.
  ScopedSignalCancellation signals;
  MinerOptions options = flags.ToOptions();
  // The support bar keeps only what can rank among the K best of the
  // unfiltered set; --closed/--maximal rank the filtered set, which needs
  // every frequent pattern.
  if (!flags.closed && !flags.maximal) {
    options.top_k = static_cast<uint64_t>(flags.top);
  }
  options.cancellation = GlobalCancellation();
  options.stats_domain = &domain;

  // Checkpointing: an interval-gated writer the miner drives at completed
  // unit boundaries, and/or a prior checkpoint to resume from. Identity
  // validation (database fingerprint + options) happens inside the miner.
  std::unique_ptr<CheckpointWriter> ckpt_writer;
  if (flags.checkpoint_out != "off") {
    const std::string ckpt_out = flags.checkpoint_out == "auto"
                                     ? std::string("tpm-checkpoint.tpmc")
                                     : flags.checkpoint_out;
    ckpt_writer =
        std::make_unique<CheckpointWriter>(ckpt_out, flags.checkpoint_every);
    options.checkpoint_writer = ckpt_writer.get();
  }
  Checkpoint resume_ckpt;
  if (!flags.resume.empty()) {
    domain.RecordEvent("resume.load");
    auto loaded = ReadCheckpointFile(flags.resume);
    if (!loaded.ok()) {
      // Corruption pins section + byte offset and exits with the load-error
      // code, mirroring the TPMB reader contract.
      return FailWithPostmortem(loaded.status().WithContext(flags.resume),
                                flags, domain, kExitLoadError);
    }
    resume_ckpt = std::move(*loaded);
    options.resume = &resume_ckpt;
  }
  // Only a checkpoint that actually reached disk is worth advertising on
  // the exit paths.
  auto ckpt_path = [&ckpt_writer]() -> std::string {
    return (ckpt_writer != nullptr && ckpt_writer->writes() > 0)
               ? ckpt_writer->path()
               : std::string();
  };

  std::unique_ptr<obs::ProgressTracker> progress;
  if (flags.progress >= 0.0) {
    progress = std::make_unique<obs::ProgressTracker>(
        flags.progress,
        [](const obs::ProgressSnapshot& snap) {
          std::cerr << snap.ToString() << "\n";
        },
        &domain);
    options.progress = progress.get();
  }

  if (flags.type == "endpoint") {
    std::unique_ptr<EndpointMiner> miner;
    if (flags.algo == "ptpminer") {
      miner = MakePTPMinerE();
    } else if (flags.algo == "tprefixspan") {
      miner = MakeTPrefixSpan();
    } else if (flags.algo == "levelwise") {
      miner = MakeLevelwiseMiner();
    } else {
      return Fail(Status::InvalidArgument("unknown endpoint --algo " + flags.algo));
    }
    auto result = miner->Mine(*db, options);
    if (!result.ok()) return FailMine(result.status(), flags, domain, ckpt_path());
    return FinishMine(std::move(*result), *db, flags, domain, out, ckpt_path());
  }
  if (flags.type == "coincidence") {
    std::unique_ptr<CoincidenceMiner> miner;
    if (flags.algo == "ptpminer") {
      miner = MakePTPMinerC();
    } else if (flags.algo == "ctminer") {
      miner = MakeCTMiner();
    } else {
      return Fail(
          Status::InvalidArgument("unknown coincidence --algo " + flags.algo));
    }
    auto result = miner->Mine(*db, options);
    if (!result.ok()) return FailMine(result.status(), flags, domain, ckpt_path());
    return FinishMine(std::move(*result), *db, flags, domain, out, ckpt_path());
  }
  return Fail(Status::InvalidArgument("unknown --type " + flags.type));
}

int CmdFaults(std::ostream& out) {
  for (const std::string& site : fault::RegisteredSites()) {
    out << site << "\n";
  }
  return 0;
}

int CmdRules(int argc, const char* const* argv, std::ostream& out) {
  FlagParser parser;
  MineFlags flags;
  flags.Register(&parser);
  double min_confidence = 0.5;
  parser.AddDouble("min-confidence", &min_confidence, "rule confidence floor");
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  if (flags.help) {
    out << "usage: tpm rules <db> [flags]\n" << parser.Usage();
    return 0;
  }
  if (positional->size() != 1) {
    return Fail(Status::InvalidArgument("rules needs exactly one <db> path"));
  }
  if (Status st = flags.Validate(); !st.ok()) return Fail(st);
  auto db = LoadForCli((*positional)[0], flags.merge_conflicts);
  if (!db.ok()) return Fail(db.status(), kExitLoadError);

  auto result = MakePTPMinerE()->Mine(*db, flags.ToOptions());
  if (!result.ok()) return Fail(result.status());
  auto rules = GenerateRules(result->patterns, min_confidence);
  for (const TemporalRule& r : rules) {
    out << r.ToString(db->dict()) << "\n";
  }
  out << "# " << rules.size() << " rules from " << result->patterns.size()
      << " patterns\n";
  return 0;
}

int CmdGenerate(int argc, const char* const* argv, std::ostream& out) {
  FlagParser parser;
  std::string kind = "quest";
  std::string output;
  int64_t sequences = 1000;
  int64_t symbols = 200;
  double avg_intervals = 8.0;
  int64_t seed = 42;
  ObsFlags obs;
  bool help = false;
  parser.AddString("kind", &kind, "quest | asl | library | stock");
  parser.AddString("output", &output, "destination file (.tisd/.csv/.tpmb)");
  parser.AddInt64("sequences", &sequences, "number of sequences (quest/library/asl)");
  parser.AddInt64("symbols", &symbols, "alphabet size (quest/library)");
  parser.AddDouble("avg-intervals", &avg_intervals, "intervals per sequence (quest)");
  parser.AddInt64("seed", &seed, "generator seed");
  obs.Register(&parser);
  parser.AddBool("help", &help, "show this help");
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  if (help) {
    out << "usage: tpm generate [flags]\n" << parser.Usage();
    return 0;
  }
  if (output.empty()) {
    return Fail(Status::InvalidArgument("generate needs --output=<file>"));
  }
  // The generator configs hold uint32 counts; a negative flag would wrap to
  // ~4 billion and turn a typo into a runaway allocation.
  constexpr int64_t kMaxCount = 100'000'000;
  if (sequences <= 0 || sequences > kMaxCount) {
    return Fail(Status::InvalidArgument("--sequences must be in [1, 1e8]"));
  }
  if (symbols <= 0 || symbols > kMaxCount) {
    return Fail(Status::InvalidArgument("--symbols must be in [1, 1e8]"));
  }
  // Also rejects NaN and inf, which would overflow the generator's
  // per-sequence count; the cap is the count flags' cap.
  if (!(avg_intervals > 0.0 && avg_intervals <= static_cast<double>(kMaxCount))) {
    return Fail(Status::InvalidArgument("--avg-intervals must be in (0, 1e8]"));
  }
  if (Status st = obs.Validate(); !st.ok()) return Fail(st);
  obs.Begin();

  Result<IntervalDatabase> db = Status::InvalidArgument("unknown --kind " + kind);
  {
    TPM_TRACE_SPAN("datagen.generate");
    if (kind == "quest") {
      QuestConfig config;
      config.num_sequences = static_cast<uint32_t>(sequences);
      config.num_symbols = static_cast<uint32_t>(symbols);
      config.avg_intervals_per_sequence = avg_intervals;
      config.seed = static_cast<uint64_t>(seed);
      db = GenerateQuest(config);
    } else if (kind == "asl") {
      AslConfig config;
      config.num_utterances = static_cast<uint32_t>(sequences);
      config.seed = static_cast<uint64_t>(seed);
      db = GenerateAslLike(config);
    } else if (kind == "library") {
      LibraryConfig config;
      config.num_borrowers = static_cast<uint32_t>(sequences);
      config.num_categories = static_cast<uint32_t>(symbols);
      config.seed = static_cast<uint64_t>(seed);
      db = GenerateLibraryLike(config);
    } else if (kind == "stock") {
      StockConfig config;
      config.num_stocks = static_cast<uint32_t>(sequences);
      config.seed = static_cast<uint64_t>(seed);
      db = GenerateStockLike(config);
    }
  }
  if (!db.ok()) return Fail(db.status());
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("datagen.sequences")->Set(db->size());
  reg.GetGauge("datagen.intervals")->Set(db->TotalIntervals());
  Status st = SaveDatabase(*db, output);
  if (!st.ok()) return Fail(st);
  if (Status obs_st = obs.Finish(); !obs_st.ok()) return Fail(obs_st);
  out << "wrote " << db->size() << " sequences (" << db->TotalIntervals()
      << " intervals) to " << output << "\n";
  return 0;
}

int CmdConvert(int argc, const char* const* argv, std::ostream& out) {
  FlagParser parser;
  bool merge = false;
  parser.AddBool("merge-conflicts", &merge, "repair same-symbol conflicts");
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  if (positional->size() != 2) {
    return Fail(Status::InvalidArgument("convert needs <in> and <out> paths"));
  }
  auto db = LoadForCli((*positional)[0], merge);
  if (!db.ok()) return Fail(db.status(), kExitLoadError);
  Status st = SaveDatabase(*db, (*positional)[1]);
  if (!st.ok()) return Fail(st);
  out << "converted " << (*positional)[0] << " -> " << (*positional)[1] << " ("
      << db->size() << " sequences)\n";
  return 0;
}

// `tpm check <db>`: the strictest structural gate short of mining. Loads the
// file, then runs ValidateDatabaseDeep — database invariants plus both
// derived mining representations (endpoint pairing, coincidence normal
// form). Any violation exits with the load-error code: a file that fails
// here would corrupt a mining run, so callers should treat it like a file
// that failed to parse.
int CmdCheck(int argc, const char* const* argv, std::ostream& out) {
  FlagParser parser;
  bool merge = false;
  parser.AddBool("merge-conflicts", &merge, "repair same-symbol conflicts");
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  if (positional->size() != 1) {
    return Fail(Status::InvalidArgument("check needs exactly one <db> path"));
  }
  auto db = LoadForCli((*positional)[0], merge);
  if (!db.ok()) return Fail(db.status(), kExitLoadError);
  Status st = ValidateDatabaseDeep(*db);
  if (!st.ok()) {
    return Fail(st.WithContext((*positional)[0]), kExitLoadError);
  }
  out << (*positional)[0] << ": OK (" << db->size() << " sequences, "
      << db->TotalIntervals() << " intervals, "
      << db->dict().size() << " symbols)\n";
  return kExitOk;
}

// `tpm report <file>`: render one of this toolchain's own artifacts — a
// --metrics-out snapshot, a BENCH_*.json record array, a postmortem, or a
// TPMC mining checkpoint — as a human-readable search summary (progress,
// pruning effectiveness, per-depth node histogram, memory peaks).
int CmdReport(int argc, const char* const* argv, std::ostream& out) {
  FlagParser parser;
  auto positional = parser.Parse(argc, argv);
  if (!positional.ok()) return Fail(positional.status());
  if (positional->size() != 1) {
    return Fail(Status::InvalidArgument("report needs exactly one <file> path"));
  }
  const std::string& path = (*positional)[0];
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail(Status::NotFound("cannot open " + path), kExitLoadError);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  if (content.size() >= 4 && content.compare(0, 4, "TPMC") == 0) {
    auto ckpt = ParseCheckpoint(content);
    if (!ckpt.ok()) {
      return Fail(ckpt.status().WithContext(path), kExitLoadError);
    }
    auto report = RenderCheckpointReport(*ckpt);
    if (!report.ok()) return Fail(report.status().WithContext(path));
    out << *report;
    return kExitOk;
  }
  auto report = RenderMetricsReport(content);
  if (!report.ok()) return Fail(report.status().WithContext(path));
  out << *report;
  return kExitOk;
}

}  // namespace

int TpmCliMain(int argc, const char* const* argv, std::ostream& out) {
  if (argc < 2) {
    std::cerr << kUsage;
    return 1;
  }
  const std::string command = argv[1];
  // Shift so subcommand parsers see their own argv[0].
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (command == "stats") return CmdStats(sub_argc, sub_argv, out);
  if (command == "profile") return CmdProfile(sub_argc, sub_argv, out);
  if (command == "mine") return CmdMine(sub_argc, sub_argv, out);
  if (command == "rules") return CmdRules(sub_argc, sub_argv, out);
  if (command == "generate") return CmdGenerate(sub_argc, sub_argv, out);
  if (command == "convert") return CmdConvert(sub_argc, sub_argv, out);
  if (command == "check") return CmdCheck(sub_argc, sub_argv, out);
  if (command == "report") return CmdReport(sub_argc, sub_argv, out);
  if (command == "faults") return CmdFaults(out);
  if (command == "help" || command == "--help") {
    out << kUsage;
    return 0;
  }
  std::cerr << "tpm: unknown command '" << command << "'\n" << kUsage;
  return 1;
}

}  // namespace tpm
