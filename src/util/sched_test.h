// Seeded schedule exploration (Tier E of the static-analysis layer, see
// docs/STATIC_ANALYSIS.md): a mini model-checker harness for the
// parallel-miner determinism contract.
//
// TPM_TEST_YIELD(point) marks a concurrency seam — a place where the
// interleaving of worker threads can actually change which order shared
// state is observed in (claiming a work item, publishing a split unit,
// delivering a finished unit, the merger's unit boundary, arena rewind). In
// normal builds the macro is `(void)0` and costs nothing. Under
// -DTPM_SCHED_TEST=ON (a CMake option, TSan CI job) each yield point
// consults a test-installed ScheduleController that perturbs the calling
// thread — a seeded mix of sched yields and short sleeps — so a test can
// drive the *same* mining run through hundreds of distinct interleavings by
// sweeping seeds, and assert that the parallel miner's output and merged
// metrics are byte-identical to the serial run's under every one of them
// (tests/util/sched_explore_test.cc).
//
// Placement rules (documented in docs/STATIC_ANALYSIS.md): plant a yield
// point only where the parallel miner's threads meet — claiming or
// publishing work, delivering a result, rewinding an arena another view
// could reference. Do not plant inside a critical section (it would just
// stretch lock hold times), and never on a per-item hot path.

#pragma once


#include <cstdint>

#ifdef TPM_SCHED_TEST

namespace tpm {
namespace sched {

/// Compiled-in probe for tests and CI guards ("fail if compiled out").
constexpr bool Enabled() { return true; }

/// Deterministic perturbation policy: each thread derives its own SplitMix64
/// stream from (seed, thread-index), and every yield point draws from it to
/// decide between passing through, yielding the CPU a few times, or sleeping
/// tens of microseconds. Different seeds explore different interleavings.
///
/// Lifetime contract: install with SetController(), join every worker that
/// might hit a yield point, then SetController(nullptr) before destroying.
class ScheduleController {
 public:
  explicit ScheduleController(uint64_t seed) : seed_(seed) {}
  uint64_t seed() const { return seed_; }

  /// Called from YieldPoint on the hitting thread.
  void Perturb(const char* point);

 private:
  uint64_t seed_;
};

/// Installs (or with nullptr uninstalls) the process-wide controller.
/// Yield points are transparent while none is installed.
void SetController(ScheduleController* c);

/// Total yield-point hits since process start (probe that instrumentation
/// is live, regardless of whether a controller was installed).
uint64_t YieldPointVisits();

/// The macro target: counts the visit and perturbs via the controller.
void YieldPoint(const char* point);

}  // namespace sched
}  // namespace tpm

#define TPM_TEST_YIELD(point) (::tpm::sched::YieldPoint(point))

#else  // !TPM_SCHED_TEST

namespace tpm {
namespace sched {

constexpr bool Enabled() { return false; }
inline uint64_t YieldPointVisits() { return 0; }

}  // namespace sched
}  // namespace tpm

#define TPM_TEST_YIELD(point) ((void)0)

#endif  // TPM_SCHED_TEST
