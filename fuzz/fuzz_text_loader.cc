// Fuzzes the recovering text loader (src/io/text_format.cc), both dialects
// (TISD / CSV) in both error modes (strict / skip-line), with and without
// same-symbol conflict merging. The first input byte selects the mode so
// libFuzzer explores all six combinations from one corpus.
//
// Properties enforced:
//   * no crash/UB for arbitrary text in any mode;
//   * anything accepted passes IntervalDatabase::Validate();
//   * accepted databases survive a write -> strict re-read round trip with
//     the same sequence and interval counts (the writer only emits what the
//     strict reader accepts);
//   * a 4-shard parse (TextReadOptions::threads) agrees with the 1-shard
//     parse: the same status and message, and the same dictionary and
//     sequences.

#include <cstdint>
#include <sstream>
#include <string>

#include "fuzz/fuzz_util.h"
#include "io/text_format.h"

namespace tpm {
namespace {

void CheckRoundTrip(const IntervalDatabase& db, bool csv) {
  std::ostringstream out;
  const Status written = csv ? WriteCsv(db, out) : WriteTisd(db, out);
  FUZZ_REQUIRE(written.ok(), "writer rejects accepted database: " +
                                 written.ToString());
  auto reread = csv ? ReadCsvString(out.str()) : ReadTisdString(out.str());
  FUZZ_REQUIRE(reread.ok(), "strict re-read of written database fails: " +
                                reread.status().ToString());
  FUZZ_REQUIRE(reread->size() == db.size(),
               "round trip changed sequence count");
  FUZZ_REQUIRE(reread->TotalIntervals() == db.TotalIntervals(),
               "round trip changed interval count");
}

void CheckOneInput(uint8_t mode, const std::string& text) {
  const bool csv = (mode & 1) != 0;
  TextReadOptions options;
  options.on_error =
      (mode & 2) != 0 ? TextErrorMode::kSkipLine : TextErrorMode::kFail;
  options.merge_conflicts = (mode & 4) != 0;

  auto db = csv ? ReadCsvString(text, options) : ReadTisdString(text, options);
  TextReadOptions sharded = options;
  sharded.threads = 4;
  auto db4 = csv ? ReadCsvString(text, sharded) : ReadTisdString(text, sharded);
  FUZZ_REQUIRE(db4.status().code() == db.status().code() &&
                   db4.status().message() == db.status().message(),
               "4-shard parse status differs: " + db4.status().ToString() +
                   " vs " + db.status().ToString());
  if (!db.ok()) return;
  FUZZ_REQUIRE(db4->dict().names() == db->dict().names(),
               "4-shard parse interned another dictionary");
  FUZZ_REQUIRE(db4->sequences() == db->sequences(),
               "4-shard parse built other sequences");
  const Status valid = db->Validate();
  FUZZ_REQUIRE(valid.ok(),
               "accepted database fails Validate: " + valid.ToString());
  CheckRoundTrip(*db, csv);
}

}  // namespace
}  // namespace tpm

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  tpm::fuzz::Init();
  if (size == 0 || size > tpm::fuzz::kMaxInputBytes) return 0;
  const std::string text(reinterpret_cast<const char*>(data + 1), size - 1);
  tpm::CheckOneInput(data[0], text);
  return 0;
}
