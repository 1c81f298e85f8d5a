#pragma once

/// \file invariants.hpp
/// The MLDCS_CHECK / MLDCS_DCHECK macro family and its failure policy.
/// The contracts they check — the local-disk-set premise, the arc-list
/// rules and the Theorem 3 skyline checks — are stated once, in
/// validate.hpp; the macros make a violation loud instead of letting it
/// surface later as a wrong cover set.
///
/// Failure policy: a failing check prints the expression, location, and a
/// caller-supplied detail dump, then aborts — unless the process opted into
/// soft-fail counting (`set_invariant_action(InvariantAction::kCount)`),
/// in which case failures increment an atomic counter and record the first
/// message for later inspection (useful in release monitoring and in tests
/// of the checking machinery itself).
///
/// Enablement: MLDCS_CHECK is always compiled in (use it only for O(1)
/// checks on hot paths).  MLDCS_DCHECK / MLDCS_DCHECK_OK compile to no-ops
/// unless the build defines MLDCS_ENABLE_INVARIANT_CHECKS (CMake option of
/// the same name) or NDEBUG is absent — mirroring assert(), which these
/// macros replace.

#include <cstdint>
#include <sstream>
#include <string>

#if defined(MLDCS_ENABLE_INVARIANT_CHECKS) || !defined(NDEBUG)
#define MLDCS_INVARIANT_CHECKS_ENABLED 1
#else
#define MLDCS_INVARIANT_CHECKS_ENABLED 0
#endif

namespace mldcs::core {

/// Compile-time mirror of the macro gate, for `if constexpr` wiring.
inline constexpr bool kInvariantChecksEnabled =
    MLDCS_INVARIANT_CHECKS_ENABLED != 0;

/// What a failing MLDCS_CHECK / MLDCS_DCHECK does.
enum class InvariantAction {
  kAbort,  ///< print to stderr and std::abort() (default)
  kCount,  ///< increment invariant_failure_count(), record first message
};

/// Set the process-wide failure action.  Thread-safe.
void set_invariant_action(InvariantAction action) noexcept;
[[nodiscard]] InvariantAction invariant_action() noexcept;

/// Number of soft-failed checks since the last reset (kCount mode only).
[[nodiscard]] std::uint64_t invariant_failure_count() noexcept;

/// The message of the first soft-failed check since the last reset, or an
/// empty string.
[[nodiscard]] std::string first_invariant_failure();

/// Reset the soft-fail counter and recorded message.
void reset_invariant_failures() noexcept;

/// Report a failed check.  Called by the macros; aborts or counts per
/// invariant_action().
void report_invariant_violation(const char* expr, const char* file, int line,
                                const std::string& detail);

}  // namespace mldcs::core

// --- Macro family ----------------------------------------------------------

/// Always-compiled check; keep the condition O(1) on hot paths.  `msg` is a
/// stream expression evaluated only on failure:
///   MLDCS_CHECK(a.start < a.end, "inverted arc " << a);
#define MLDCS_CHECK(cond, msg)                                              \
  do {                                                                      \
    if (!(cond)) [[unlikely]] {                                             \
      std::ostringstream mldcs_check_os_;                                   \
      mldcs_check_os_ << msg; /* NOLINT(bugprone-macro-parentheses): */     \
      /* msg is a << chain by contract, parenthesizing would break it */    \
      ::mldcs::core::report_invariant_violation(#cond, __FILE__, __LINE__,  \
                                                mldcs_check_os_.str());     \
    }                                                                       \
  } while (false)

/// Always-compiled form for validators returning an error string; fails
/// when the string is non-empty and uses it as the detail dump.
#define MLDCS_CHECK_OK(expr)                                                \
  do {                                                                      \
    const std::string mldcs_check_err_ = (expr);                            \
    if (!mldcs_check_err_.empty()) [[unlikely]] {                           \
      ::mldcs::core::report_invariant_violation(#expr, __FILE__, __LINE__,  \
                                                mldcs_check_err_);          \
    }                                                                       \
  } while (false)

#if MLDCS_INVARIANT_CHECKS_ENABLED
#define MLDCS_DCHECK(cond, msg) MLDCS_CHECK(cond, msg)
#define MLDCS_DCHECK_OK(expr) MLDCS_CHECK_OK(expr)
#else
// Disabled: the arguments are not evaluated (like assert under NDEBUG).
#define MLDCS_DCHECK(cond, msg) static_cast<void>(0)
#define MLDCS_DCHECK_OK(expr) static_cast<void>(0)
#endif
