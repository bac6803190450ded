// Drives the tpm CLI through its library entry point.

#include "cli.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/json.h"

namespace tpm {
namespace {

int RunCli(std::initializer_list<const char*> args, std::string* output) {
  std::vector<const char*> argv(args);
  std::ostringstream out;
  const int code =
      TpmCliMain(static_cast<int>(argv.size()), argv.data(), out);
  *output = out.str();
  return code;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteSample(const std::string& path) {
  std::ofstream f(path);
  f << "p1 Fever 0 5\n"
       "p1 Rash 3 9\n"
       "p2 Fever 10 16\n"
       "p2 Rash 12 20\n"
       "p3 Rash 1 4\n";
}

TEST(CliTest, NoArgsFails) {
  std::string out;
  EXPECT_NE(RunCli({"tpm"}, &out), 0);
}

TEST(CliTest, HelpSucceeds) {
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "help"}, &out), 0);
  EXPECT_NE(out.find("commands:"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  std::string out;
  EXPECT_NE(RunCli({"tpm", "frobnicate"}, &out), 0);
}

TEST(CliTest, StatsOnSample) {
  const std::string db = TempPath("cli_sample.tisd");
  WriteSample(db);
  std::string out;
  ASSERT_EQ(RunCli({"tpm", "stats", db.c_str()}, &out), 0);
  EXPECT_NE(out.find("sequences=3"), std::string::npos);
  EXPECT_NE(out.find("intervals=5"), std::string::npos);
}

TEST(CliTest, StatsMissingFileFails) {
  std::string out;
  EXPECT_NE(RunCli({"tpm", "stats", "/nonexistent/x.tisd"}, &out), 0);
}

TEST(CliTest, CheckAcceptsValidDatabase) {
  const std::string db = TempPath("check_ok.tisd");
  WriteSample(db);
  std::string out;
  ASSERT_EQ(RunCli({"tpm", "check", db.c_str()}, &out), 0);
  EXPECT_NE(out.find("OK"), std::string::npos);
  EXPECT_NE(out.find("3 sequences"), std::string::npos);
}

TEST(CliTest, CheckRejectsCorruptDatabase) {
  const std::string db = TempPath("check_bad.tisd");
  {
    std::ofstream f(db);
    f << "p1 Fever 9 2\n";  // start > finish
  }
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "check", db.c_str()}, &out), 2);
}

TEST(CliTest, CheckMissingFileFails) {
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "check", "/nonexistent/x.tisd"}, &out), 2);
}

TEST(CliTest, MineEndpointFindsOverlap) {
  const std::string db = TempPath("cli_mine.tisd");
  WriteSample(db);
  std::string out;
  ASSERT_EQ(
      RunCli({"tpm", "mine", db.c_str(), "--minsup=2", "--describe"}, &out), 0);
  EXPECT_NE(out.find("<{Fever+}{Rash+}{Fever-}{Rash-}>"), std::string::npos);
  EXPECT_NE(out.find("Fever overlaps Rash"), std::string::npos);
}

TEST(CliTest, MineCoincidence) {
  const std::string db = TempPath("cli_coin.tisd");
  WriteSample(db);
  std::string out;
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--type=coincidence",
                 "--minsup=2", "--algo=ctminer"},
                &out),
            0);
  EXPECT_NE(out.find("<(Fever Rash)>"), std::string::npos);
}

TEST(CliTest, MineRejectsBadAlgo) {
  const std::string db = TempPath("cli_bad.tisd");
  WriteSample(db);
  std::string out;
  EXPECT_NE(RunCli({"tpm", "mine", db.c_str(), "--algo=quantum"}, &out), 0);
  EXPECT_NE(RunCli({"tpm", "mine", db.c_str(), "--type=fancy"}, &out), 0);
}

TEST(CliTest, MineToOutputFile) {
  const std::string db = TempPath("cli_out.tisd");
  const std::string patterns = TempPath("cli_out.patterns");
  WriteSample(db);
  std::string out;
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 ("--output=" + patterns).c_str()},
                &out),
            0);
  std::ifstream f(patterns);
  ASSERT_TRUE(f.good());
  std::string contents((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("<{Fever+}{Fever-}>"), std::string::npos);
}

TEST(CliTest, MineClosedAndTopFilters) {
  const std::string db = TempPath("cli_filters.tisd");
  WriteSample(db);
  std::string all_out, closed_out, top_out;
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2"}, &all_out), 0);
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2", "--closed"},
                &closed_out),
            0);
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2", "--top=1"}, &top_out),
            0);
  auto count_lines = [](const std::string& s) {
    size_t n = 0;
    for (char c : s) n += (c == '\n');
    return n;
  };
  EXPECT_LE(count_lines(closed_out), count_lines(all_out));
  EXPECT_EQ(count_lines(top_out), 2u);  // one pattern + summary line
}

TEST(CliTest, GenerateConvertRoundTrip) {
  const std::string tisd = TempPath("cli_gen.tisd");
  const std::string tpmb = TempPath("cli_gen.tpmb");
  std::string out;
  ASSERT_EQ(RunCli({"tpm", "generate", "--kind=quest", "--sequences=50",
                 "--symbols=10", ("--output=" + tisd).c_str()},
                &out),
            0);
  EXPECT_NE(out.find("wrote 50 sequences"), std::string::npos);
  ASSERT_EQ(RunCli({"tpm", "convert", tisd.c_str(), tpmb.c_str()}, &out), 0);
  ASSERT_EQ(RunCli({"tpm", "stats", tpmb.c_str()}, &out), 0);
  EXPECT_NE(out.find("sequences=50"), std::string::npos);
}

TEST(CliTest, GenerateAllKinds) {
  for (const char* kind : {"asl", "library", "stock"}) {
    const std::string path = TempPath(std::string("cli_gen_") + kind + ".tpmb");
    std::string out;
    ASSERT_EQ(RunCli({"tpm", "generate", ("--kind=" + std::string(kind)).c_str(),
                   "--sequences=20", ("--output=" + path).c_str()},
                  &out),
              0)
        << kind;
  }
  std::string out;
  EXPECT_NE(RunCli({"tpm", "generate", "--kind=nope", "--output=/tmp/x.tisd"}, &out),
            0);
  EXPECT_NE(RunCli({"tpm", "generate", "--kind=quest"}, &out), 0);  // no output
  // A non-finite or huge mean used to overflow the generator's count cast.
  for (const char* flag :
       {"--avg-intervals=nan", "--avg-intervals=inf", "--avg-intervals=1e12"}) {
    EXPECT_EQ(RunCli({"tpm", "generate", "--kind=quest", "--sequences=2",
                      "--output=/tmp/x.tisd", flag},
                     &out),
              1)
        << flag;
  }
}

TEST(CliTest, RulesCommand) {
  const std::string db = TempPath("cli_rules.tisd");
  WriteSample(db);
  std::string out;
  ASSERT_EQ(RunCli({"tpm", "rules", db.c_str(), "--minsup=2",
                 "--min-confidence=0.1"},
                &out),
            0);
  EXPECT_NE(out.find("rules from"), std::string::npos);
}

TEST(CliTest, MineWindowFlag) {
  const std::string db = TempPath("cli_window.tisd");
  WriteSample(db);
  std::string wide, tight;
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2"}, &wide), 0);
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2", "--window=2"}, &tight),
            0);
  // Window 2 kills the overlap pattern (span 9+) but keeps nothing larger.
  EXPECT_NE(wide.find("{Rash+}{Fever-}"), std::string::npos);
  EXPECT_EQ(tight.find("{Rash+}{Fever-}"), std::string::npos);
}

TEST(CliTest, ProfileCommand) {
  const std::string db = TempPath("cli_profile.tisd");
  WriteSample(db);
  std::string out;
  ASSERT_EQ(RunCli({"tpm", "profile", db.c_str(), "--top=2"}, &out), 0);
  EXPECT_NE(out.find("top 2 symbols"), std::string::npos);
  EXPECT_NE(out.find("relation mix"), std::string::npos);
  EXPECT_NE(out.find("overlaps"), std::string::npos);
}

bool FileExists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

std::string Slurp(const std::string& path) {
  std::ifstream f(path);
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

TEST(CliExitCodeTest, LoadErrorsExitWith2) {
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "mine", "/nonexistent/x.tisd"}, &out), 2);
  EXPECT_EQ(RunCli({"tpm", "stats", "/nonexistent/x.tisd"}, &out), 2);
}

TEST(CliExitCodeTest, UsageErrorsExitWith1) {
  const std::string db = TempPath("cli_usage.tisd");
  WriteSample(db);
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--on-error=bogus"}, &out), 1);
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--memory-budget-mb=-1"}, &out),
            1);
  // Negative or NaN values used to read as "off" and mine without a limit;
  // a non-finite --minsup overflowed its cast to a count.
  for (const char* flag : {"--budget=-1", "--budget=nan", "--progress=nan",
                           "--checkpoint-every=nan", "--minsup=inf",
                           "--minsup=nan"}) {
    EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), flag}, &out), 1) << flag;
  }
  // Values past the option's range used to wrap when narrowed: 2^32 + 1
  // items or blocks read as a cap of 1, and 2^44 + 1 MiB overflowed the
  // byte count to a 1 MiB budget that truncated the run with exit 0.
  for (const char* flag :
       {"--max-items=4294967296", "--max-items=4294967297",
        "--max-length=4294967296", "--max-length=4294967297",
        "--memory-budget-mb=17592186044416",
        "--memory-budget-mb=17592186044417"}) {
    EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2", flag}, &out), 1)
        << flag;
  }
  // The largest values that fit are accepted and mine as unlimited.
  for (const char* flag :
       {"--max-items=4294967295", "--max-length=4294967295",
        "--memory-budget-mb=17592186044415"}) {
    EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2", flag}, &out), 0)
        << flag;
  }
}

TEST(CliExitCodeTest, TimeBudgetTruncationExitsWith3AndWritesPartials) {
  // A budget far below one clock tick trips the guard on its first timed
  // check; the run must still write its outputs before exiting 3.
  const std::string db = TempPath("cli_trunc.tisd");
  const std::string patterns = TempPath("cli_trunc.patterns");
  const std::string metrics = TempPath("cli_trunc.metrics.json");
  WriteSample(db);
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 "--budget=0.0000001", "--postmortem-out=off",
                 ("--output=" + patterns).c_str(),
                 ("--metrics-out=" + metrics).c_str()},
                &out),
            3);
  EXPECT_TRUE(FileExists(patterns));
  ASSERT_TRUE(FileExists(metrics));
#ifndef TPM_OBS_DISABLED
  const std::string json = Slurp(metrics);
  EXPECT_NE(json.find("robust.stop.deadline"), std::string::npos) << json;
#endif
}

TEST(CliExitCodeTest, GenerousMemoryBudgetCompletes) {
  const std::string db = TempPath("cli_membudget.tisd");
  WriteSample(db);
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 "--memory-budget-mb=512"},
                &out),
            0);
  EXPECT_NE(out.find("patterns"), std::string::npos);
}

TEST(CliRecoveryTest, OnErrorSkipLoadsDirtyFile) {
  const std::string db = TempPath("cli_dirty.tisd");
  {
    std::ofstream f(db);
    f << "p1 Fever 0 5\n"
         "this line is garbage\n"
         "p1 Rash 3 9\n"
         "p2 Fever oops 16\n"
         "p2 Fever 10 16\n"
         "p2 Rash 12 20\n";
  }
  std::string out;
  // Default (fail) mode rejects the file as a load error...
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2"}, &out), 2);
  // ...skip mode drops the two bad rows and mines the rest.
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 "--on-error=skip"},
                &out),
            0);
  EXPECT_NE(out.find("<{Fever+}{Rash+}{Fever-}{Rash-}>"), std::string::npos);
}

TEST(CliFaultsTest, FaultsCommandListsRegisteredSites) {
  std::string out;
  ASSERT_EQ(RunCli({"tpm", "faults"}, &out), 0);
  for (const char* site : {"io.open_read", "io.rename", "miner.alloc"}) {
    EXPECT_NE(out.find(site), std::string::npos) << out;
  }
}

TEST(CliFaultsTest, InjectedLoadFaultExitsWith4AndWritesPostmortem) {
  const std::string db = TempPath("cli_fault_load.tisd");
  const std::string pm = TempPath("cli_fault_load.pm.json");
  WriteSample(db);
  std::remove(pm.c_str());
  std::string out;
  fault::ScopedFault fault("io.open_read", 1);
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 ("--postmortem-out=" + pm).c_str()},
                &out),
            4);
  ASSERT_TRUE(FileExists(pm));
  const std::string doc = Slurp(pm);
  EXPECT_NE(doc.find("\"outcome\": \"fault\""), std::string::npos) << doc;
}

TEST(CliFaultsTest, InjectedMinerFaultWritesPostmortemWithFlightEvents) {
  const std::string db = TempPath("cli_fault_miner.tisd");
  const std::string pm = TempPath("cli_fault_miner.pm.json");
  WriteSample(db);
  std::remove(pm.c_str());
  std::string out;
  {
    fault::ScopedFault fault("miner.alloc", 1);
    EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                   ("--postmortem-out=" + pm).c_str()},
                  &out),
              4);
  }
  ASSERT_TRUE(FileExists(pm));
  const std::string doc = Slurp(pm);
  EXPECT_NE(doc.find("\"outcome\": \"fault\""), std::string::npos) << doc;
#ifndef TPM_OBS_DISABLED
  EXPECT_NE(doc.find("\"kind\": \"fault\""), std::string::npos) << doc;
#endif
  // The postmortem is itself a `tpm report` input.
  std::string report;
  ASSERT_EQ(RunCli({"tpm", "report", pm.c_str()}, &report), 0);
  EXPECT_NE(report.find("outcome=fault"), std::string::npos) << report;
}

TEST(CliFaultsTest, InjectedRenameFaultLeavesNoTempFile) {
  const std::string db = TempPath("cli_fault_rename.tisd");
  const std::string patterns = TempPath("cli_fault_rename.patterns");
  WriteSample(db);
  std::remove(patterns.c_str());
  std::remove((patterns + ".tmp").c_str());
  std::string out;
  {
    fault::ScopedFault fault("io.rename", 1);
    EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                   "--postmortem-out=off",
                   ("--output=" + patterns).c_str()},
                  &out),
              4);
  }
  EXPECT_FALSE(FileExists(patterns));
  EXPECT_FALSE(FileExists(patterns + ".tmp"));
}

TEST(CliObservabilityTest, ProgressFlagChargesCounterAndKeepsPositional) {
  // Bare --progress must not swallow the following <db> positional, and a
  // zero-interval run must record at least one snapshot in the metrics.
  const std::string db = TempPath("cli_progress.tisd");
  const std::string metrics = TempPath("cli_progress.metrics.json");
  WriteSample(db);
  std::string out;
  ASSERT_EQ(RunCli({"tpm", "mine", "--progress", db.c_str(), "--minsup=2"},
                &out),
            0);
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2", "--progress=0",
                 ("--metrics-out=" + metrics).c_str()},
                &out),
            0);
#ifndef TPM_OBS_DISABLED
  const std::string json = Slurp(metrics);
  EXPECT_NE(json.find("progress.snapshots"), std::string::npos) << json;
  EXPECT_NE(json.find("obs.flight.events"), std::string::npos) << json;
#endif
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--progress=-2"}, &out), 1);
}

TEST(CliObservabilityTest, TruncatedRunWritesPostmortem) {
  const std::string db = TempPath("cli_pm_trunc.tisd");
  const std::string pm = TempPath("cli_pm_trunc.pm.json");
  WriteSample(db);
  std::remove(pm.c_str());
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 "--budget=0.0000001", ("--postmortem-out=" + pm).c_str()},
                &out),
            3);
  ASSERT_TRUE(FileExists(pm));
  const std::string doc = Slurp(pm);
  EXPECT_NE(doc.find("\"outcome\": \"truncated\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"detail\": \"deadline\""), std::string::npos) << doc;
#ifndef TPM_OBS_DISABLED
  EXPECT_NE(doc.find("\"kind\": \"guard.stop\""), std::string::npos) << doc;
#endif
}

// Every work item charges its own tally, which the run merges into its
// result; the run domain keeps only the preamble. A truncated run's
// postmortem must report the merged search and pruning counters, the same
// ones --metrics-out writes. At --threads=1 the memory budget stops the run
// partway through its units at the same point every time.
TEST(CliObservabilityTest, TruncatedPostmortemCarriesTheMergedMetrics) {
  const std::string db = TempPath("cli_pm_merged.tisd");
  const std::string pm = TempPath("cli_pm_merged.pm.json");
  const std::string metrics = TempPath("cli_pm_merged.metrics.json");
  std::string out;
  ASSERT_EQ(RunCli({"tpm", "generate", "--kind=quest", "--sequences=600",
                    "--symbols=40", "--seed=3", ("--output=" + db).c_str()},
                   &out),
            0);
  // --metrics-out scrapes the process-wide registry, which earlier tests in
  // this binary charged too.
  obs::MetricsRegistry::Global().Reset();
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--type=coincidence",
                    "--minsup=0.02", "--memory-budget-mb=2",
                    ("--metrics-out=" + metrics).c_str(),
                    ("--postmortem-out=" + pm).c_str()},
                   &out),
            3);
#ifndef TPM_OBS_DISABLED
  // The nonzero search.* and prune.* counters of a metrics snapshot.
  auto search_counters = [](const JsonValue* snapshot) {
    std::map<std::string, uint64_t> counters;
    const JsonValue* all =
        snapshot == nullptr ? nullptr : snapshot->Find("counters");
    if (all == nullptr) return counters;
    for (const auto& [name, value] : all->fields) {
      const bool search = name.rfind("search.", 0) == 0 ||
                          name.rfind("prune.", 0) == 0;
      if (search && value.AsUint64() != 0) counters[name] = value.AsUint64();
    }
    return counters;
  };
  auto written = ParseJson(Slurp(metrics));
  auto doc = ParseJson(Slurp(pm));
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const std::map<std::string, uint64_t> want = search_counters(&*written);
  const std::map<std::string, uint64_t> got =
      search_counters(doc->Find("metrics"));
  EXPECT_EQ(got, want);
  // The units' work is in: the root node alone emits no pattern.
  ASSERT_TRUE(got.count("search.patterns")) << Slurp(pm);
  EXPECT_GT(got.at("search.patterns"), 0u);
#endif
}

TEST(CliObservabilityTest, PostmortemOffSuppressesArtifact) {
  const std::string db = TempPath("cli_pm_off.tisd");
  WriteSample(db);
  std::remove("tpm-postmortem.json");
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 "--budget=0.0000001", "--postmortem-out=off"},
                &out),
            3);
  // Nothing lands in the default location either.
  EXPECT_FALSE(FileExists("tpm-postmortem.json"));
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--postmortem-out="}, &out), 1);
}

TEST(CliObservabilityTest, CleanRunWritesNoPostmortem) {
  const std::string db = TempPath("cli_pm_clean.tisd");
  const std::string pm = TempPath("cli_pm_clean.pm.json");
  WriteSample(db);
  std::remove(pm.c_str());
  std::string out;
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 ("--postmortem-out=" + pm).c_str()},
                &out),
            0);
  EXPECT_FALSE(FileExists(pm));
}

TEST(CliReportTest, RendersOwnMetricsOutput) {
  const std::string db = TempPath("cli_report.tisd");
  const std::string metrics = TempPath("cli_report.metrics.json");
  WriteSample(db);
  std::string out;
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 ("--metrics-out=" + metrics).c_str()},
                &out),
            0);
  std::string report;
  ASSERT_EQ(RunCli({"tpm", "report", metrics.c_str()}, &report), 0);
  EXPECT_NE(report.find("pruning effectiveness"), std::string::npos) << report;
  EXPECT_NE(report.find("stop:"), std::string::npos) << report;
}

TEST(CliReportTest, ErrorPaths) {
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "report"}, &out), 1);
  EXPECT_EQ(RunCli({"tpm", "report", "/nonexistent/m.json"}, &out), 2);
  const std::string junk = TempPath("cli_report_junk.json");
  {
    std::ofstream f(junk);
    f << "not json at all";
  }
  EXPECT_EQ(RunCli({"tpm", "report", junk.c_str()}, &out), 1);
}

TEST(CliCheckpointTest, TruncatedRunWritesCheckpointAndResumesIdentically) {
  const std::string db = TempPath("cli_ckpt.tisd");
  const std::string ckpt = TempPath("cli_ckpt.tpmc");
  const std::string pm = TempPath("cli_ckpt.pm.json");
  WriteSample(db);
  std::remove(ckpt.c_str());
  std::string clean;
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2"}, &clean), 0);
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 "--budget=0.0000001", ("--checkpoint-out=" + ckpt).c_str(),
                 "--checkpoint-every=0", ("--postmortem-out=" + pm).c_str()},
                &out),
            3);
  ASSERT_TRUE(FileExists(ckpt));
  // The postmortem names the checkpoint so a crashed run's operator can
  // find the resume artifact from the dump alone.
  const std::string doc = Slurp(pm);
  EXPECT_NE(doc.find("\"checkpoint\": \"" + ckpt + "\""), std::string::npos)
      << doc;
  // Resuming without the budget completes and reproduces the clean pattern
  // stream exactly (the trailing "# ..." summary line differs in timings).
  std::string resumed;
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 ("--resume=" + ckpt).c_str()},
                &resumed),
            0);
  EXPECT_EQ(resumed.substr(0, resumed.find("\n# ")),
            clean.substr(0, clean.find("\n# ")));
}

TEST(CliCheckpointTest, ResumeMismatchExitsWith1) {
  const std::string db = TempPath("cli_ckpt_mm.tisd");
  const std::string ckpt = TempPath("cli_ckpt_mm.tpmc");
  WriteSample(db);
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 "--budget=0.0000001", ("--checkpoint-out=" + ckpt).c_str(),
                 "--checkpoint-every=0", "--postmortem-out=off"},
                &out),
            3);
  ASSERT_TRUE(FileExists(ckpt));
  // Different minsup: the run-identity check refuses the checkpoint.
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=3",
                 ("--resume=" + ckpt).c_str()},
                &out),
            1);
  // Different language/algo: same refusal.
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 "--type=coincidence", "--algo=ctminer",
                 ("--resume=" + ckpt).c_str()},
                &out),
            1);
}

TEST(CliCheckpointTest, CorruptOrMissingResumeExitsWith2) {
  const std::string db = TempPath("cli_ckpt_bad.tisd");
  const std::string ckpt = TempPath("cli_ckpt_bad.tpmc");
  const std::string truncated = TempPath("cli_ckpt_bad_trunc.tpmc");
  WriteSample(db);
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 "--budget=0.0000001", ("--checkpoint-out=" + ckpt).c_str(),
                 "--checkpoint-every=0", "--postmortem-out=off"},
                &out),
            3);
  const std::string bytes = Slurp(ckpt);
  ASSERT_GT(bytes.size(), 10u);
  {
    std::ofstream f(truncated, std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 5));
  }
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 ("--resume=" + truncated).c_str(), "--postmortem-out=off"},
                &out),
            2);
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 "--resume=/nonexistent/x.tpmc", "--postmortem-out=off"},
                &out),
            2);
}

TEST(CliCheckpointTest, ReportRendersCheckpointFile) {
  const std::string db = TempPath("cli_ckpt_report.tisd");
  const std::string ckpt = TempPath("cli_ckpt_report.tpmc");
  WriteSample(db);
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--minsup=2",
                 "--budget=0.0000001", ("--checkpoint-out=" + ckpt).c_str(),
                 "--checkpoint-every=0", "--postmortem-out=off"},
                &out),
            3);
  ASSERT_TRUE(FileExists(ckpt));
  std::string report;
  ASSERT_EQ(RunCli({"tpm", "report", ckpt.c_str()}, &report), 0);
  EXPECT_NE(report.find("checkpoint: endpoint"), std::string::npos) << report;
  EXPECT_NE(report.find("progress:"), std::string::npos) << report;
  EXPECT_NE(report.find("patterns banked:"), std::string::npos) << report;
  EXPECT_NE(report.find("elapsed:"), std::string::npos) << report;
}

// The level-wise miner does not checkpoint: asking it to is a usage error,
// caught before the database is even loaded.
TEST(CliCheckpointTest, LevelwiseRefusesCheckpointFlags) {
  const std::string ckpt = TempPath("cli_ckpt_levelwise.tpmc");
  std::remove(ckpt.c_str());
  std::string out;
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(RunCli({"tpm", "mine", "/nonexistent/db.tisd", "--algo=levelwise",
                    "--minsup=2", ("--checkpoint-out=" + ckpt).c_str()},
                   &out),
            1);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                "--algo=levelwise does not checkpoint"),
            std::string::npos);
  EXPECT_FALSE(FileExists(ckpt));
  EXPECT_EQ(RunCli({"tpm", "mine", "/nonexistent/db.tisd", "--algo=levelwise",
                    "--minsup=2", ("--resume=" + ckpt).c_str()},
                   &out),
            1);
}

TEST(CliCheckpointTest, BadFlagValuesExitWith1) {
  const std::string db = TempPath("cli_ckpt_flags.tisd");
  WriteSample(db);
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--checkpoint-out="}, &out), 1);
  EXPECT_EQ(RunCli({"tpm", "mine", db.c_str(), "--checkpoint-every=-1"}, &out),
            1);
}

// Pattern lines of a `tpm mine` stdout, without the trailing "# ..." line.
std::vector<std::string> PatternLines(const std::string& out) {
  std::vector<std::string> lines;
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# ", 0) != 0) lines.push_back(line);
  }
  return lines;
}

// TopKBySupport over canonically sorted output lines: support descending,
// ties in the order the output already has.
std::vector<std::string> RankLines(std::vector<std::string> lines, size_t k) {
  std::stable_sort(lines.begin(), lines.end(),
                   [](const std::string& a, const std::string& b) {
                     return std::stoull(a) > std::stoull(b);
                   });
  if (lines.size() > k) lines.resize(k);
  return lines;
}

std::string GenerateTopInput(const std::string& name) {
  const std::string db = TempPath(name);
  std::string out;
  EXPECT_EQ(RunCli({"tpm", "generate", "--kind=quest", "--sequences=150",
                    "--symbols=15", "--seed=5", ("--output=" + db).c_str()},
                   &out),
            0);
  return db;
}

// Closed/maximal filters need the whole frequent set before ranking, so the
// support bar is off there: --top ranks the filtered set, exactly as if the
// filtered output were ranked afterwards.
TEST(CliTopTest, TopWithClosedOrMaximalRanksTheFilteredSet) {
  const std::string db = GenerateTopInput("cli_top_filters.tpmb");
  for (const char* filter : {"--closed", "--maximal"}) {
    std::string filtered, topped;
    ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--type=coincidence",
                      "--minsup=0.1", filter},
                     &filtered),
              0);
    ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--type=coincidence",
                      "--minsup=0.1", filter, "--top=8", "--threads=2"},
                     &topped),
              0);
    const std::vector<std::string> all = PatternLines(filtered);
    ASSERT_GT(all.size(), 8u) << filter;
    EXPECT_EQ(PatternLines(topped), RankLines(all, 8)) << filter;
  }
}

// The bar is off under checkpointing, so a --top run banks every unit in
// full and its checkpoint resumes to the whole pattern set without --top.
TEST(CliTopTest, CheckpointedTopRunResumesToTheFullSet) {
  const std::string db = GenerateTopInput("cli_top_ckpt.tpmb");
  const std::string ckpt = TempPath("cli_top_ckpt.tpmc");
  std::remove(ckpt.c_str());
  std::string clean, topped, resumed;
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--type=coincidence",
                    "--minsup=0.1"},
                   &clean),
            0);
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--type=coincidence",
                    "--minsup=0.1", "--top=3",
                    ("--checkpoint-out=" + ckpt).c_str(),
                    "--checkpoint-every=0"},
                   &topped),
            0);
  ASSERT_TRUE(FileExists(ckpt));
  EXPECT_EQ(PatternLines(topped), RankLines(PatternLines(clean), 3));
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--type=coincidence",
                    "--minsup=0.1", ("--resume=" + ckpt).c_str()},
                   &resumed),
            0);
  EXPECT_GT(PatternLines(clean).size(), 3u);
  EXPECT_EQ(PatternLines(resumed), PatternLines(clean));
}

// Without --closed/--maximal the bar prunes the search, but the output is
// still the top K of the full output.
TEST(CliTopTest, TopMatchesRankedFullOutput) {
  const std::string db = GenerateTopInput("cli_top_plain.tpmb");
  std::string full, topped;
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--type=coincidence",
                    "--minsup=0.1"},
                   &full),
            0);
  ASSERT_EQ(RunCli({"tpm", "mine", db.c_str(), "--type=coincidence",
                    "--minsup=0.1", "--top=10", "--threads=3", "--steal"},
                   &topped),
            0);
  EXPECT_EQ(PatternLines(topped), RankLines(PatternLines(full), 10));
}

// `tpm rules` validates the shared mining flags exactly like `tpm mine`.
TEST(CliTest, RulesRejectsOutOfRangeThreads) {
  const std::string db = TempPath("cli_rules_threads.tisd");
  WriteSample(db);
  for (const char* threads : {"--threads=-1", "--threads=65"}) {
    std::string out;
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(RunCli({"tpm", "rules", db.c_str(), "--minsup=2", threads}, &out),
              1)
        << threads;
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "--threads must be between 1 and 64"),
              std::string::npos)
        << threads;
  }
}

// --top ranks `tpm mine` output only; rules are built from the full frequent
// set, so `tpm rules --top` prints what `tpm rules` prints for any thread
// count.
TEST(CliTopTest, RulesIgnoreTop) {
  const std::string db = GenerateTopInput("cli_top_rules.tpmb");
  std::string plain, topped;
  ASSERT_EQ(RunCli({"tpm", "rules", db.c_str(), "--minsup=0.1",
                    "--min-confidence=0.1"},
                   &plain),
            0);
  ASSERT_EQ(RunCli({"tpm", "rules", db.c_str(), "--minsup=0.1",
                    "--min-confidence=0.1", "--top=3", "--threads=2"},
                   &topped),
            0);
  EXPECT_GT(PatternLines(plain).size(), 3u);
  EXPECT_EQ(topped, plain);
}

TEST(CliTest, HelpFlagsForSubcommands) {
  std::string out;
  ASSERT_EQ(RunCli({"tpm", "mine", "--help"}, &out), 0);
  EXPECT_NE(out.find("--minsup"), std::string::npos);
  ASSERT_EQ(RunCli({"tpm", "generate", "--help"}, &out), 0);
  EXPECT_NE(out.find("--kind"), std::string::npos);
}

}  // namespace
}  // namespace tpm
