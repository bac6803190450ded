// Property harness: mine whatever survives the TPMB parser and hold the
// miners to the Tier C validator contracts (src/core/validate.h), under a
// tiny ExecutionGuard budget so no input can stall the fuzzer.
//
// Input layout: byte 0 selects the mining configuration (language, pruning
// mask, window cap, top-K bar); when selector bit 0x20 is set, byte 1 gives
// K - 1. The rest is a TPMB body that is CRC-signed and parsed. Databases
// that parse but are too large for a fuzz iteration are skipped.
//
// Properties enforced on every mined result:
//   * Mine() succeeds on any database the parser accepted (budget stops are
//     truncation, never errors);
//   * every reported pattern passes ValidatePattern and has
//     0 < support <= |D|;
//   * on complete (non-truncated) endpoint runs, support monotonicity holds
//     across the reported set (ValidateSupportMonotonicity).
//   * with a top-K bar, when neither run truncated, ranking the barred run
//     gives exactly the top K of the full run (TopKBySupport).

#include <cstdint>
#include <string>

#include "analysis/postprocess.h"
#include "core/validate.h"
#include "fuzz/fuzz_util.h"
#include "io/binary_format.h"
#include "miner/miner.h"
#include "miner/options.h"

namespace tpm {
namespace {

constexpr size_t kMaxSequences = 32;
constexpr size_t kMaxIntervals = 512;

MinerOptions OptionsFromSelector(uint8_t selector) {
  MinerOptions options;
  options.min_support = 0.34;  // absolute 1..2 on tiny fuzz databases
  options.pair_pruning = (selector & 0x02) != 0;
  options.postfix_pruning = (selector & 0x04) != 0;
  options.validity_pruning = (selector & 0x08) != 0;
  options.max_window = (selector & 0x10) != 0 ? 10 : 0;
  options.max_patterns = 512;
  options.time_budget_seconds = 0.25;
  options.threads = 1;
  return options;
}

template <typename ResultT>
void CheckMined(const ResultT& result, size_t db_size) {
  for (const auto& mined : result.patterns) {
    const Status valid = ValidatePattern(mined.pattern);
    FUZZ_REQUIRE(valid.ok(),
                 "reported pattern fails validation: " + valid.ToString());
    FUZZ_REQUIRE(mined.support > 0 && mined.support <= db_size,
                 "support " + std::to_string(mined.support) +
                     " out of range for |D|=" + std::to_string(db_size));
  }
}

// A run with the top-K bar returns a superset of the K best patterns, so
// its ranking must match the full run's whenever neither was cut short.
template <typename ResultT, typename MineFn>
void CheckTopKBar(const ResultT& full, MinerOptions options, uint64_t top_k,
                  size_t db_size, MineFn mine) {
  options.top_k = top_k;
  auto barred = mine(options);
  FUZZ_REQUIRE(barred.ok(),
               "top-K Mine failed: " + barred.status().ToString());
  CheckMined(*barred, db_size);
  if (full.stats.truncated || barred->stats.truncated) return;
  FUZZ_REQUIRE(TopKBySupport(barred->patterns, top_k) ==
                   TopKBySupport(full.patterns, top_k),
               "top-" + std::to_string(top_k) +
                   " with the support bar differs from the full mine");
}

void CheckOneInput(uint8_t selector, uint64_t top_k, const std::string& body) {
  auto db = ParseBinary(fuzz::Resign(body));
  if (!db.ok()) return;  // error contracts are fuzz_binary_format's job
  if (db->size() > kMaxSequences || db->TotalIntervals() > kMaxIntervals) {
    return;
  }
  const Status valid = ValidateDatabase(*db);
  FUZZ_REQUIRE(valid.ok(), "parsed database fails ValidateDatabase: " +
                               valid.ToString());

  const MinerOptions options = OptionsFromSelector(selector);
  if ((selector & 0x01) != 0) {
    auto mine = [&](const MinerOptions& o) {
      return MakePTPMinerC()->Mine(*db, o);
    };
    auto result = mine(options);
    FUZZ_REQUIRE(result.ok(),
                 "coincidence Mine failed: " + result.status().ToString());
    CheckMined(*result, db->size());
    if (top_k > 0) CheckTopKBar(*result, options, top_k, db->size(), mine);
  } else {
    auto mine = [&](const MinerOptions& o) {
      return MakePTPMinerE()->Mine(*db, o);
    };
    auto result = mine(options);
    FUZZ_REQUIRE(result.ok(),
                 "endpoint Mine failed: " + result.status().ToString());
    CheckMined(*result, db->size());
    if (!result->stats.truncated) {
      const Status mono = ValidateSupportMonotonicity(result->patterns);
      FUZZ_REQUIRE(mono.ok(),
                   "support monotonicity violated: " + mono.ToString());
    }
    if (top_k > 0) CheckTopKBar(*result, options, top_k, db->size(), mine);
  }
}

}  // namespace
}  // namespace tpm

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  tpm::fuzz::Init();
  if (size == 0 || size > tpm::fuzz::kMaxInputBytes) return 0;
  const uint8_t selector = data[0];
  size_t header = 1;
  uint64_t top_k = 0;
  if ((selector & 0x20) != 0) {
    if (size < 2) return 0;
    top_k = uint64_t{data[1]} + 1;
    header = 2;
  }
  const std::string body(reinterpret_cast<const char*>(data + header),
                         size - header);
  tpm::CheckOneInput(selector, top_k, body);
  return 0;
}
