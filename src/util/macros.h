// Error-propagation and checking macros (Arrow idiom).

#pragma once


#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "util/status.h"

/// Evaluates `expr` (a Status expression); returns it from the enclosing
/// function if it is an error.
#define TPM_RETURN_NOT_OK(expr)                 \
  do {                                          \
    ::tpm::Status _tpm_status = (expr);         \
    if (!_tpm_status.ok()) return _tpm_status;  \
  } while (false)

#define TPM_CONCAT_IMPL(x, y) x##y
#define TPM_CONCAT(x, y) TPM_CONCAT_IMPL(x, y)

/// Evaluates `rexpr` (a Result<T> expression); on error returns the status
/// from the enclosing function, otherwise move-assigns the value into `lhs`.
#define TPM_ASSIGN_OR_RETURN(lhs, rexpr)                        \
  TPM_ASSIGN_OR_RETURN_IMPL(TPM_CONCAT(_tpm_result_, __LINE__), \
                            lhs, rexpr)

#define TPM_ASSIGN_OR_RETURN_IMPL(result_name, lhs, rexpr) \
  auto&& result_name = (rexpr);                            \
  if (!result_name.ok()) return result_name.status();      \
  lhs = std::move(result_name).ValueOrDie()

// Prints "<kind> failed at <file>:<line>: <message>" and aborts.
#define TPM_FAIL_IMPL(kind, message)                                        \
  do {                                                                      \
    std::fprintf(stderr, kind " failed at %s:%d: %s\n", __FILE__, __LINE__, \
                 message);                                                  \
    std::abort();                                                           \
  } while (false)

#define TPM_CHECK_IMPL(kind, condition)                                     \
  do {                                                                      \
    if (!(condition)) TPM_FAIL_IMPL(kind, #condition);                      \
  } while (false)

#define TPM_CHECK_OK_IMPL(kind, expr)                                       \
  do {                                                                      \
    ::tpm::Status _tpm_check_status = (expr);                               \
    if (!_tpm_check_status.ok()) {                                          \
      TPM_FAIL_IMPL(kind, _tpm_check_status.ToString().c_str());            \
    }                                                                       \
  } while (false)

/// Aborts the process when `condition` is false. For invariants whose
/// violation means the library itself is broken (never for user input).
#define TPM_CHECK(condition) TPM_CHECK_IMPL("TPM_CHECK", condition)
#define TPM_CHECK_OK(expr) TPM_CHECK_OK_IMPL("TPM_CHECK_OK", expr)

#if !defined(NDEBUG) || defined(TPM_FORCE_VALIDATORS)
#define TPM_VALIDATORS_ENABLED 1

/// Debug-only invariant and Status assertions: TPM_CHECK / TPM_CHECK_OK in
/// debug builds, compiled out (operands unevaluated) in release builds.
#define TPM_DCHECK(condition) TPM_CHECK_IMPL("TPM_DCHECK", condition)
#define TPM_DCHECK_OK(expr) TPM_CHECK_OK_IMPL("TPM_DCHECK_OK", expr)

#else
#define TPM_VALIDATORS_ENABLED 0

// `false && (x)` keeps the operands ODR-used (no unused-variable fallout at
// call sites) while folding to nothing under optimization.
#define TPM_DCHECK(condition) do { if (false && (condition)) break; } while (false)
#define TPM_DCHECK_OK(expr) do { if (false) { (void)(expr); } } while (false)

#endif  // TPM_VALIDATORS_ENABLED

namespace tpm {

/// `i`, after a TPM_DCHECK that it is below `n`: a bounds check that fits in
/// an accessor's index expression.
inline uint32_t DCheckedIndex(uint32_t i, uint32_t n) {
  TPM_DCHECK(i < n);
  return i;
}

}  // namespace tpm
