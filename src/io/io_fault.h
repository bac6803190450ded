// Fault-point shim for the I/O layer: tests the site via TPM_FAULT_POINT and
// charges the io.fault.injected counter when it fires, so injection runs are
// visible in metrics snapshots (and CI can assert a fault actually landed).

#pragma once


#include "obs/metrics.h"
#include "util/fault.h"
#include "util/sync.h"

namespace tpm {

inline bool IoFaultPoint(const char* site) {
  // Every I/O fault site fronts a syscall (open/write/rename); holding a
  // lock across one is a lock-held unwind waiting to happen.
  CheckNoLocksHeld();
  if (TPM_FAULT_POINT(site)) {
    obs::MetricsRegistry::Global().GetCounter("io.fault.injected")->Increment();
    return true;
  }
  return false;
}

}  // namespace tpm

