// Fuzzes ParseCheckpoint (the TPMC v3 reader, src/io/checkpoint.cc).
//
// Properties enforced on every input:
//   * no crash/UB for arbitrary bytes;
//   * every Corruption pins "section <name>, byte offset <n>" inside the
//     buffer (same contract as the TPMB reader);
//   * an unsupported version yields NotImplemented, never UB;
//   * anything that parses satisfies the documented invariants: the
//     per-unit pattern counts align index-for-index with completed_units
//     and sum exactly to patterns.size().
//
// Tried raw and re-signed (CRC appended) to reach past the checksum wall.

#include <cstdint>
#include <string>

#include "fuzz/fuzz_util.h"
#include "io/checkpoint.h"

namespace tpm {
namespace {

void CheckOneBuffer(const std::string& buffer) {
  auto parsed = ParseCheckpoint(buffer);
  if (!parsed.ok()) {
    if (parsed.status().code() == StatusCode::kCorruption) {
      fuzz::RequireWellFormedCorruption(parsed.status(), buffer.size());
    }
    return;
  }
  const Checkpoint& ckpt = *parsed;
  FUZZ_REQUIRE(
      ckpt.unit_pattern_counts.size() == ckpt.completed_units.size(),
      "unit_pattern_counts / completed_units misaligned: " +
          std::to_string(ckpt.unit_pattern_counts.size()) + " vs " +
          std::to_string(ckpt.completed_units.size()));
  uint64_t claimed = 0;
  bool overflow = false;
  for (uint64_t n : ckpt.unit_pattern_counts) {
    overflow = overflow || __builtin_add_overflow(claimed, n, &claimed);
  }
  FUZZ_REQUIRE(!overflow, "accepted checkpoint with overflowing unit counts");
  FUZZ_REQUIRE(claimed == ckpt.patterns.size(),
               "accepted checkpoint where unit counts sum to " +
                   std::to_string(claimed) + " but patterns.size() is " +
                   std::to_string(ckpt.patterns.size()));
}

}  // namespace
}  // namespace tpm

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  tpm::fuzz::Init();
  if (size > tpm::fuzz::kMaxInputBytes) return 0;
  const std::string buffer(reinterpret_cast<const char*>(data), size);
  tpm::CheckOneBuffer(buffer);
  tpm::CheckOneBuffer(tpm::fuzz::Resign(buffer));
  return 0;
}
