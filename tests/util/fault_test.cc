#include "util/fault.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace tpm {
namespace fault {
namespace {

TEST(FaultRegistryTest, SitesAreSortedAndNonEmpty) {
  const auto& sites = RegisteredSites();
  ASSERT_FALSE(sites.empty());
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  for (const std::string& site : sites) {
    EXPECT_TRUE(IsRegisteredSite(site)) << site;
  }
  EXPECT_FALSE(IsRegisteredSite("no.such.site"));
}

TEST(FaultRegistryTest, ExpectedSitesRegistered) {
  // The CI fault matrix and the docs reference these by name.
  for (const char* site :
       {"io.open_read", "io.open_write", "io.read", "io.write", "io.fsync",
        "io.rename", "io.alloc", "miner.alloc"}) {
    EXPECT_TRUE(IsRegisteredSite(site)) << site;
  }
}

TEST(FaultInjectionTest, FiresOnNthHitOnly) {
  Arm("io.write", 3);
  EXPECT_FALSE(TPM_FAULT_POINT("io.write"));  // hit 1
  EXPECT_FALSE(TPM_FAULT_POINT("io.write"));  // hit 2
  EXPECT_EQ(InjectionCount(), 0u);
  EXPECT_TRUE(TPM_FAULT_POINT("io.write"));   // hit 3 fires
  EXPECT_EQ(InjectionCount(), 1u);
  EXPECT_FALSE(TPM_FAULT_POINT("io.write"));  // fires exactly once
  Disarm();
}

TEST(FaultInjectionTest, OtherSitesDoNotCountHits) {
  Arm("io.fsync", 1);
  EXPECT_FALSE(TPM_FAULT_POINT("io.write"));
  EXPECT_FALSE(TPM_FAULT_POINT("io.read"));
  EXPECT_TRUE(TPM_FAULT_POINT("io.fsync"));
  Disarm();
}

TEST(FaultInjectionTest, DisarmClearsState) {
  Arm("io.read", 1);
  Disarm();
  EXPECT_FALSE(TPM_FAULT_POINT("io.read"));
  EXPECT_EQ(InjectionCount(), 0u);
}

TEST(FaultInjectionTest, RearmResetsHitCounter) {
  Arm("io.read", 2);
  EXPECT_FALSE(TPM_FAULT_POINT("io.read"));  // hit 1
  Arm("io.read", 2);                         // counter back to zero
  EXPECT_FALSE(TPM_FAULT_POINT("io.read"));  // hit 1 again
  EXPECT_TRUE(TPM_FAULT_POINT("io.read"));   // hit 2 fires
  Disarm();
}

TEST(FaultInjectionTest, ScopedFaultDisarmsOnExit) {
  {
    ScopedFault fault("io.rename", 1);
    EXPECT_TRUE(TPM_FAULT_POINT("io.rename"));
  }
  EXPECT_FALSE(TPM_FAULT_POINT("io.rename"));
}

}  // namespace
}  // namespace fault
}  // namespace tpm
