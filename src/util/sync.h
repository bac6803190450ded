// Capability-annotated synchronization primitives (Tier D of the
// static-analysis layer, see docs/STATIC_ANALYSIS.md).
//
// Every lock in src/ is a tpm::Mutex, never a raw std::mutex (the `locking`
// project lint enforces this). The wrapper costs nothing — it is a
// std::mutex with Clang thread-safety capability attributes attached — but
// it lets `-Wthread-safety -Wthread-safety-beta` prove, at compile time,
// that every access to a TPM_GUARDED_BY member happens under its mutex and
// that lock/unlock pairs balance on every path. GCC (and MSVC) see plain
// no-op macros, so the annotations never affect non-Clang builds.
//
// Usage:
//   class TPM_CAPABILITY("mutex") — on a lockable type (already on Mutex).
//   TPM_GUARDED_BY(mu_)           — on each member the mutex protects.
//   TPM_REQUIRES(mu_)             — on private methods called under the lock.
//   MutexLock lock(&mu_);         — RAII acquire/release (scoped capability).
//
// The analysis is per-translation-unit and flow-sensitive; it cannot see
// through function pointers or type-erased callables, so keep lock-holding
// regions small and structured.
//
// Every tpm::Mutex is a leaf: a thread never holds two at once, and never
// reaches a fault point (io/io_fault.h, miner/miner_metrics.h) while it
// holds one. With no lock ever nested there is no lock order to get wrong,
// so no deadlock between them is possible. Builds without NDEBUG check
// this at runtime with a per-thread held count: Lock() aborts, before
// blocking, when the calling thread already holds a tpm::Mutex, and
// CheckNoLocksHeld() aborts at a fault point reached under one. Under
// NDEBUG, Mutex is a bare std::mutex and both checks compile away.

#pragma once


#include <mutex>

#include "util/macros.h"

// ---------------------------------------------------------------------------
// Attribute plumbing: real attributes under Clang, no-ops elsewhere.
// ---------------------------------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define TPM_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define TPM_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

/// Marks a type as a lockable capability (shows up as "mutex 'mu_'" in
/// diagnostics).
#define TPM_CAPABILITY(x) TPM_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define TPM_SCOPED_CAPABILITY TPM_THREAD_ANNOTATION_(scoped_lockable)

/// Declares that a data member is protected by the given capability; reads
/// and writes outside the lock become compile errors under Clang.
#define TPM_GUARDED_BY(x) TPM_THREAD_ANNOTATION_(guarded_by(x))

/// The function must be called with the capability held (and does not
/// release it). Used on the *Locked helper methods.
#define TPM_REQUIRES(...) \
  TPM_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// The function acquires / releases the capability.
#define TPM_ACQUIRE(...) \
  TPM_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define TPM_RELEASE(...) \
  TPM_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

namespace tpm {

#ifndef NDEBUG
namespace internal {
/// tpm::Mutexes the calling thread holds: 0 or 1, as every lock is a leaf.
inline thread_local int held_mutexes = 0;
}  // namespace internal
#endif

/// Aborts, in builds without NDEBUG, when the calling thread holds a
/// tpm::Mutex. Fault points call it: they front syscalls and allocations,
/// and an injected failure must never unwind through a critical section.
inline void CheckNoLocksHeld() {
#ifndef NDEBUG
  TPM_CHECK(internal::held_mutexes == 0 &&
            "fault point reached with a tpm::Mutex held");
#endif
}

/// \brief std::mutex with thread-safety capability annotations.
///
/// Off the hot paths by design: the mining inner loops charge plain
/// per-work-item tallies (src/miner/miner_metrics.h) and registry metrics
/// write lock-free atomics (src/obs/metrics.h); mutexes guard the cold
/// registration / snapshot / scheduling paths only.
class TPM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TPM_ACQUIRE() {
#ifndef NDEBUG
    // Checked before blocking, so a nested acquire aborts here instead of
    // deadlocking on a lock this thread already holds.
    TPM_CHECK(internal::held_mutexes == 0 && "every tpm::Mutex is a leaf");
#endif
    mu_.lock();
#ifndef NDEBUG
    ++internal::held_mutexes;
#endif
  }

  void Unlock() TPM_RELEASE() {
#ifndef NDEBUG
    --internal::held_mutexes;
#endif
    mu_.unlock();
  }

 private:
  std::mutex mu_;
};

/// \brief RAII lock for a tpm::Mutex (the project's std::lock_guard).
///
/// Declared as a scoped capability so Clang credits the constructor with the
/// acquire and the destructor with the release on every control-flow path.
class TPM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) TPM_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() TPM_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace tpm
