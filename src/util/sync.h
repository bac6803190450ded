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
// regions small and structured. TPM_NO_THREAD_SAFETY_ANALYSIS is the
// documented escape hatch for the rare function whose locking discipline is
// correct but inexpressible — every use must carry a justifying comment.

#pragma once


#include <mutex>

#include "util/lockdep.h"

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

/// Like TPM_GUARDED_BY, but for the data a pointer member points to.
#define TPM_PT_GUARDED_BY(x) TPM_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Declares lock-ordering constraints between two mutexes (deadlock gate).
#define TPM_ACQUIRED_BEFORE(...) \
  TPM_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define TPM_ACQUIRED_AFTER(...) \
  TPM_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// The function must be called with the capability held (and does not
/// release it). Used on the *Locked helper methods.
#define TPM_REQUIRES(...) \
  TPM_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define TPM_REQUIRES_SHARED(...) \
  TPM_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// The function acquires / releases the capability.
#define TPM_ACQUIRE(...) \
  TPM_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define TPM_ACQUIRE_SHARED(...) \
  TPM_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define TPM_RELEASE(...) \
  TPM_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define TPM_RELEASE_SHARED(...) \
  TPM_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `b`.
#define TPM_TRY_ACQUIRE(b, ...) \
  TPM_THREAD_ANNOTATION_(try_acquire_capability(b, __VA_ARGS__))

/// The function must be called with the capability *not* held.
#define TPM_EXCLUDES(...) TPM_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Runtime assertion to the analysis that the capability is held here.
#define TPM_ASSERT_CAPABILITY(x) \
  TPM_THREAD_ANNOTATION_(assert_capability(x))

/// The function returns a reference to the given capability.
#define TPM_RETURN_CAPABILITY(x) TPM_THREAD_ANNOTATION_(lock_returned(x))

/// Opts a function out of the analysis. Escape hatch of last resort; every
/// use must explain why the discipline is correct but inexpressible.
#define TPM_NO_THREAD_SAFETY_ANALYSIS \
  TPM_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace tpm {

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

#ifdef TPM_LOCKDEP
  // Tier E runtime lockdep (util/lockdep.h): the acquire hook runs the
  // lock-order cycle check *before* blocking on the underlying mutex, so an
  // ABBA inversion aborts with both chains instead of deadlocking. The
  // file/line defaults capture the caller's acquire site for the report.
  ~Mutex() { lockdep::OnDestroy(this); }

  void Lock(const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) TPM_ACQUIRE() {
    lockdep::OnAcquire(this, file, line);
    mu_.lock();
  }
  void Unlock() TPM_RELEASE() {
    mu_.unlock();
    lockdep::OnRelease(this);
  }
  bool TryLock(const char* file = __builtin_FILE(),
               int line = __builtin_LINE()) TPM_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lockdep::OnTryAcquire(this, file, line);
    return true;
  }
#else
  void Lock() TPM_ACQUIRE() { mu_.lock(); }
  void Unlock() TPM_RELEASE() { mu_.unlock(); }
  bool TryLock() TPM_TRY_ACQUIRE(true) { return mu_.try_lock(); }
#endif

 private:
  std::mutex mu_;
};

/// \brief RAII lock for a tpm::Mutex (the project's std::lock_guard).
///
/// Declared as a scoped capability so Clang credits the constructor with the
/// acquire and the destructor with the release on every control-flow path.
class TPM_SCOPED_CAPABILITY MutexLock {
 public:
#ifdef TPM_LOCKDEP
  // Forwards the construction site so lockdep reports name the MutexLock
  // line, not this header.
  explicit MutexLock(Mutex* mu, const char* file = __builtin_FILE(),
                     int line = __builtin_LINE()) TPM_ACQUIRE(mu)
      : mu_(mu) {
    mu_->Lock(file, line);
  }
#else
  explicit MutexLock(Mutex* mu) TPM_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
#endif
  ~MutexLock() TPM_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace tpm
