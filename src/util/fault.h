// Deterministic fault injection for robustness testing.
//
// A *fault site* is a named point in the code where an operation can be made
// to fail on demand (an open(2), a write, an allocation). Sites are armed
// either programmatically:
//
//   tpm::fault::ScopedFault fault("io.open_read", 1);  // 1st hit fails
//
// or from the environment, which is how CI drives the whole matrix:
//
//   TPM_FAULT=io.write:2 tpm mine data.tpmb --output out.patterns
//
// fires the *2nd* time the io.write site is reached and every site keeps a
// deterministic per-process hit counter, so a given (input, site, nth) tuple
// always fails at the same operation. Call sites test the macro and surface
// the failure as a normal Status:
//
//   if (TPM_FAULT_POINT("io.fsync")) return Status::IOError("injected ...");
//
// The canonical site list lives in fault.cc and is exposed via
// RegisteredSites() so tools (`tpm faults`) and CI can enumerate the matrix.

#pragma once


#include <cstdint>
#include <string>
#include <vector>

namespace tpm {
namespace fault {

/// Every fault site compiled into the binary, sorted.
const std::vector<std::string>& RegisteredSites();

/// True when `site` names a registered site.
bool IsRegisteredSite(const std::string& site);

/// Arms `site` to fail on its `nth` upcoming hit (1-based). Replaces any
/// previous arming (programmatic or TPM_FAULT) and zeroes the hit counter.
/// Unknown sites are accepted and simply never fire.
void Arm(const std::string& site, uint64_t nth);

/// Disarms everything and suppresses TPM_FAULT for the rest of the process.
void Disarm();

/// The injection point: counts a hit of `site` and returns true exactly when
/// the armed site matches and the hit count reaches the armed nth.
bool ShouldFail(const char* site);

/// How many injections have fired since the last Arm()/Disarm().
uint64_t InjectionCount();

/// RAII arming for tests: arms on construction, disarms on destruction.
class ScopedFault {
 public:
  ScopedFault(const std::string& site, uint64_t nth) { Arm(site, nth); }
  ~ScopedFault() { Disarm(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

}  // namespace fault
}  // namespace tpm

/// Use at call sites; reads as a predicate.
#define TPM_FAULT_POINT(site) (::tpm::fault::ShouldFail(site))

