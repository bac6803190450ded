// Runtime invariant validators (Tier C of the static-analysis layer, see
// docs/STATIC_ANALYSIS.md).
//
// Two layers:
//
//  * Status-returning Validate* functions — always compiled, used by
//    `tpm check <file>` to diagnose corrupt inputs before mining and by the
//    debug assertions below. They check the structural invariants the miners
//    assume but (for speed) never re-derive: interval ordering, endpoint
//    pairing, coincidence normal form, pattern canonicality, and support
//    monotonicity between a pattern and its prefix.
//
//  * TPM_DCHECK / TPM_DCHECK_OK (util/macros.h) — debug assertions,
//    compiled out in release builds (NDEBUG) unless TPM_FORCE_VALIDATORS is
//    defined. Miners assert the validators at entry (database, built
//    representations) and exit (every reported pattern) so an invariant
//    break aborts loudly at the point of corruption instead of surfacing as
//    a wrong support count three layers later.
//
// Validation work charges the validate.checks / validate.failures counters
// so `tpm check` runs are visible in metrics snapshots.

#pragma once

#include "core/coincidence.h"
#include "core/database.h"
#include "core/endpoint.h"
#include "core/pattern.h"
#include "util/macros.h"
#include "util/status.h"

namespace tpm {

/// \brief Database-level checks beyond EventSequence::Validate(): every
/// sequence valid (canonical order, start <= finish, no same-symbol
/// conflicts) and every event id resolvable in the dictionary when one is
/// populated. Error messages cite the sequence index.
Status ValidateDatabase(const IntervalDatabase& db);

/// \brief Endpoint-representation invariants: even item count, slice times
/// strictly increasing, slices non-empty / sorted / duplicate-free,
/// item_slice consistent with the offsets, and the partner index a proper
/// pairing (involution, start-to-finish, same symbol, start never after its
/// finish, point events in one slice).
Status ValidateEndpointSequence(const EndpointSequence& es);

/// \brief Coincidence normal form: segments non-empty / sorted /
/// duplicate-free, segment times ordered (zero-length segments allowed),
/// and each item's alive_until the last segment of its interval, with
/// interval identity derived from segment times (core/coincidence.h).
Status ValidateCoincidenceSequence(const CoincidenceSequence& cs);

/// \brief Canonical reported form of an endpoint pattern: structural validity
/// (EndpointPattern::Validate) plus completeness — miners only report
/// patterns with every opened symbol closed.
Status ValidatePattern(const EndpointPattern& pattern);

/// \brief Canonical reported form of a coincidence pattern (structural
/// validity; all coincidence patterns are complete by construction).
Status ValidatePattern(const CoincidencePattern& pattern);

struct NodeProjection;  // core/projection.h (which includes this header)

/// \brief Structural invariants of a finalized projected database: spans
/// strictly increasing by sequence, every span non-empty, offsets tiling
/// [0, num_states) contiguously from 0, and state/aux arrays present
/// whenever states exist. Guards Bucket-building's grouped-by-sequence
/// assumption at the miner boundary.
Status ValidateProjection(const NodeProjection& proj);

/// Validates every sequence view in an endpoint database.
Status ValidateEndpointDatabase(const EndpointDatabase& edb);

/// Validates every sequence view in a coincidence database.
Status ValidateCoincidenceDatabase(const CoincidenceDatabase& cdb);

/// \brief Deep end-to-end check used by `tpm check`: ValidateDatabase, then
/// builds both mining representations and validates each derived sequence.
/// This is the strictest structural gate an input can pass short of mining.
Status ValidateDatabaseDeep(const IntervalDatabase& db);

namespace internal {

/// Removes the last-opened interval (its start endpoint and the FIFO-paired
/// finish, dropping slices that empty), yielding the complete enumeration
/// parent used by the support monotonicity check. Returns an empty pattern
/// when `pattern` has fewer than two intervals or is not complete.
EndpointPattern PrefixOf(const EndpointPattern& pattern);

}  // namespace internal

/// \brief Support monotonicity (anti-monotone support): for every reported
/// pattern whose enumeration prefix is also in `patterns`, the prefix's
/// support must be >= the extension's. Complete result sets (no truncation,
/// no closed/maximal filtering) contain every frequent prefix, so miners
/// assert this at exit in debug builds. `patterns` is any container of
/// elements with `.pattern` (EndpointPattern) and `.support` members.
template <typename MinedPatternVec>
Status ValidateSupportMonotonicity(const MinedPatternVec& patterns);

}  // namespace tpm

#include "core/validate_inl.h"
