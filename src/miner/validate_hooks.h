// Debug-build invariant hooks shared by the miner entry points (Tier C, see
// docs/STATIC_ANALYSIS.md). Each wrapper asserts the validators from
// core/validate.h at entry (the database), right after the build (the
// representation that is mined) and at exit (every reported pattern
// canonical and complete, support anti-monotone for untruncated runs). All
// of it compiles to nothing when TPM_VALIDATORS_ENABLED is 0.

#pragma once

#include "core/projection.h"
#include "core/validate.h"
#include "miner/options.h"

namespace tpm::internal {

/// Asserts a freshly finalized projected database is well-formed (spans
/// grouped and strictly increasing by sequence, offsets contiguous). The
/// growth engine calls this on every bucket it finalizes.
inline void DCheckProjection(const NodeProjection& proj) {
#if TPM_VALIDATORS_ENABLED
  TPM_DCHECK_OK(ValidateProjection(proj));
#else
  (void)proj;
#endif
}

inline void DCheckMinerEntry(const IntervalDatabase& db) {
#if TPM_VALIDATORS_ENABLED
  TPM_DCHECK_OK(ValidateDatabase(db));
#else
  (void)db;
#endif
}

/// Asserts the representation a miner built is well-formed, right after its
/// build: the store that is checked is the one that is mined.
inline void DCheckRepresentation(const EndpointDatabase& edb) {
#if TPM_VALIDATORS_ENABLED
  TPM_DCHECK_OK(ValidateEndpointDatabase(edb));
#else
  (void)edb;
#endif
}

inline void DCheckRepresentation(const CoincidenceDatabase& cdb) {
#if TPM_VALIDATORS_ENABLED
  TPM_DCHECK_OK(ValidateCoincidenceDatabase(cdb));
#else
  (void)cdb;
#endif
}

// Every cap and window constraint preserves support anti-monotonicity under
// interval removal (an occurrence of a pattern restricts to an occurrence of
// any sub-pattern within the same window), so completeness of the result set
// — and with it the monotonicity assertion — only breaks when a budget
// truncated the search.
inline void DCheckMinerExit(const EndpointMiningResult& result) {
#if TPM_VALIDATORS_ENABLED
  for (const auto& mp : result.patterns) {
    TPM_DCHECK_OK(ValidatePattern(mp.pattern));
  }
  if (!result.stats.truncated) {
    TPM_DCHECK_OK(ValidateSupportMonotonicity(result.patterns));
  }
#else
  (void)result;
#endif
}

inline void DCheckMinerExit(const CoincidenceMiningResult& result) {
#if TPM_VALIDATORS_ENABLED
  for (const auto& mp : result.patterns) {
    TPM_DCHECK_OK(ValidatePattern(mp.pattern));
  }
#else
  (void)result;
#endif
}

}  // namespace tpm::internal
