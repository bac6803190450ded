// The candidate scan's per-context scratch (ScanScratch): its two stamped
// tables must never let a mark from before a counter wrap read as current.

#include <gtest/gtest.h>

#include <cstdint>

#include "miner/growth_engine.h"

namespace tpm {
namespace {

// The postfix-count epoch is bumped once per scanned span. Entries start at
// 0, so an epoch that wrapped to 0 would match every untouched symbol and
// undercount it; one that wrapped to 1 would match a symbol last marked 2^32
// spans ago.
TEST(ScanScratchTest, EpochWrapClearsStaleMarks) {
  ScanScratch s(/*num_symbols=*/5);
  s.epoch = UINT32_MAX - 1;
  s.seen_epoch = {1, UINT32_MAX - 1, 0, 7, 0};  // symbol 4 stays untouched
  EXPECT_EQ(s.NextEpoch(), UINT32_MAX);
  s.seen_epoch[2] = UINT32_MAX;  // marked in the last epoch before the wrap

  const uint32_t epoch = s.NextEpoch();
  EXPECT_EQ(epoch, 1u);
  for (uint32_t e = 0; e < s.seen_epoch.size(); ++e) {
    EXPECT_NE(s.seen_epoch[e], epoch) << "symbol " << e;
  }
  EXPECT_EQ(s.NextEpoch(), 2u);
}

// The node stamp lives in a slot's high half; after a wrap no slot may carry
// the new stamp, whatever it held before.
TEST(ScanScratchTest, StampWrapClearsStaleSlots) {
  ScanScratch s(/*num_symbols=*/2);
  ASSERT_EQ(s.ext_slots.size(), 8u);
  s.stamp = UINT32_MAX - 1;
  s.ext_slot(0, false) = uint64_t{1} << 32 | 3;  // stamp 1, bucket 2
  s.ext_slot(1, true) = uint64_t{1} << 32;       // stamp 1, rejected
  EXPECT_EQ(s.NextStamp(), UINT32_MAX);
  s.ext_slot(3, true) = uint64_t{UINT32_MAX} << 32 | 1;

  const uint32_t stamp = s.NextStamp();
  EXPECT_EQ(stamp, 1u);
  for (size_t k = 0; k < s.ext_slots.size(); ++k) {
    EXPECT_NE(s.ext_slots[k] >> 32, stamp) << "slot " << k;
  }
  EXPECT_EQ(s.NextStamp(), 2u);
}

// Keys are (code << 1) | i_ext and codes stay below 2 × symbols, so the last
// key of the largest code is the table's last entry.
TEST(ScanScratchTest, SlotKeysCoverTwoCodesPerSymbol) {
  ScanScratch s(/*num_symbols=*/3);
  EXPECT_EQ(&s.ext_slot(5, true), &s.ext_slots.back());
  EXPECT_EQ(&s.ext_slot(0, false), &s.ext_slots.front());
  EXPECT_EQ(&s.ext_slot(2, true) - &s.ext_slot(2, false), 1);
}

}  // namespace
}  // namespace tpm
