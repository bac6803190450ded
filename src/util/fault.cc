#include "util/fault.h"

#include <algorithm>
#include <cstdlib>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/sync.h"

namespace tpm {
namespace fault {

namespace {

// The canonical site list. Keep sorted; every TPM_FAULT_POINT call site must
// name an entry here (fault_test cross-checks the live binary) so the CI
// matrix in ci.yml stays exhaustive.
const char* const kSites[] = {
    "io.alloc",       // allocation failure at a TPMB record boundary
    "io.checkpoint.open",    // open failure reading/writing a TPMC checkpoint
    "io.checkpoint.rename",  // rename failure committing a TPMC checkpoint
    "io.checkpoint.write",   // write failure serializing a TPMC checkpoint
    "io.fsync",       // fsync(2) failure in the atomic file writer
    "io.open_read",   // open-for-read failure in the file readers
    "io.open_write",  // open-for-write failure in the atomic file writer
    "io.read",        // short read while slurping a binary file
    "io.rename",      // rename(2) failure committing an atomic write
    "io.write",       // write failure in the atomic file writer
    "miner.alloc",    // representation-build allocation failure in the miners
};

}  // namespace

const std::vector<std::string>& RegisteredSites() {
  static const std::vector<std::string> sites(std::begin(kSites),
                                              std::end(kSites));
  return sites;
}

bool IsRegisteredSite(const std::string& site) {
  const auto& sites = RegisteredSites();
  return std::binary_search(sites.begin(), sites.end(), site);
}

namespace {

struct FaultState {
  Mutex mu;
  bool env_loaded TPM_GUARDED_BY(mu) = false;
  std::string armed_site TPM_GUARDED_BY(mu);  // empty = disarmed
  uint64_t armed_nth TPM_GUARDED_BY(mu) = 0;
  uint64_t hits TPM_GUARDED_BY(mu) = 0;
  uint64_t injections TPM_GUARDED_BY(mu) = 0;
};

FaultState& State() {
  static FaultState* state = new FaultState();  // leaked: alive for atexit paths
  return *state;
}

// Parses "site:nth" ("nth" optional, default 1). Called under the lock.
void LoadEnvLocked(FaultState& s) TPM_REQUIRES(s.mu) {
  s.env_loaded = true;
  // Reads TPM_FAULT exactly once, under the state mutex; the process never
  // calls setenv, so there is no writer for getenv to race with.
  const char* env = std::getenv("TPM_FAULT");  // NOLINT(concurrency-mt-unsafe)
  if (env == nullptr || env[0] == '\0') return;
  const std::string spec(env);
  const size_t colon = spec.find(':');
  std::string site = spec.substr(0, colon);
  uint64_t nth = 1;
  if (colon != std::string::npos) {
    auto parsed = ParseInt64(spec.substr(colon + 1));
    if (!parsed.ok() || *parsed <= 0) {
      TPM_LOG(Warning) << "ignoring malformed TPM_FAULT spec '" << spec
                       << "' (want <site>:<nth> with nth >= 1)";
      return;
    }
    nth = static_cast<uint64_t>(*parsed);
  }
  if (!IsRegisteredSite(site)) {
    TPM_LOG(Warning) << "TPM_FAULT names unregistered site '" << site
                     << "'; it will never fire (see `tpm faults`)";
  }
  s.armed_site = std::move(site);
  s.armed_nth = nth;
}

}  // namespace

void Arm(const std::string& site, uint64_t nth) {
  FaultState& s = State();
  MutexLock lock(&s.mu);
  s.env_loaded = true;  // programmatic arming overrides TPM_FAULT
  s.armed_site = site;
  s.armed_nth = nth == 0 ? 1 : nth;
  s.hits = 0;
  s.injections = 0;
}

void Disarm() {
  FaultState& s = State();
  MutexLock lock(&s.mu);
  s.env_loaded = true;
  s.armed_site.clear();
  s.armed_nth = 0;
  s.hits = 0;
  s.injections = 0;
}

bool ShouldFail(const char* site) {
  FaultState& s = State();
  MutexLock lock(&s.mu);
  if (!s.env_loaded) LoadEnvLocked(s);
  if (s.armed_site.empty() || s.armed_site != site) return false;
  if (++s.hits != s.armed_nth) return false;
  ++s.injections;
  TPM_LOG(Warning) << "fault injected at site '" << site << "' (hit "
                   << s.armed_nth << ")";
  return true;
}

uint64_t InjectionCount() {
  FaultState& s = State();
  MutexLock lock(&s.mu);
  return s.injections;
}

}  // namespace fault
}  // namespace tpm
