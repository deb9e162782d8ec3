/**
 * @file
 * Contract macros: NANOBUS_EXPECT (preconditions) and NANOBUS_ENSURE
 * (postconditions / invariants).
 *
 * Policy (see docs/STATIC_ANALYSIS.md):
 *
 *  - In checked builds the macros are *debug-fatal*: a violated
 *    contract panics with the stringified condition, file, line, and
 *    the caller's printf-style message. panic() is the right channel —
 *    a violated contract is a nanobus bug, not a user error.
 *  - In unchecked (NDEBUG) builds they are *release-hints*: the
 *    condition is handed to the optimizer as an assumption and no code
 *    is generated for it. Contracts must therefore state only true
 *    invariants — they are not input validation (use fatal() or
 *    Result<T> for that) and must never have side effects.
 *
 * The default follows NDEBUG, so the RelWithDebInfo default build
 * (and the tier-1 suite run on it) checks nothing. Define
 * NANOBUS_CONTRACT_CHECKS to 0 or 1 before including this header (or
 * via the compiler command line) to force either mode; the CI
 * ASan+UBSan job configures with
 * -DCMAKE_CXX_FLAGS=-DNANOBUS_CONTRACT_CHECKS=1, so the whole suite
 * runs with every contract checked there.
 */

#ifndef NANOBUS_UTIL_CONTRACTS_HH
#define NANOBUS_UTIL_CONTRACTS_HH

#include "util/logging.hh"

#ifndef NANOBUS_CONTRACT_CHECKS
#ifdef NDEBUG
#define NANOBUS_CONTRACT_CHECKS 0
#else
#define NANOBUS_CONTRACT_CHECKS 1
#endif
#endif

/** Tell the optimizer `cond` holds, generating no check. */
#if defined(__clang__)
#define NANOBUS_ASSUME_(cond) __builtin_assume(cond)
#elif defined(__GNUC__)
#define NANOBUS_ASSUME_(cond) \
    do { \
        if (!(cond)) \
            __builtin_unreachable(); \
    } while (0)
#else
#define NANOBUS_ASSUME_(cond) ((void)0)
#endif

#if NANOBUS_CONTRACT_CHECKS

#define NANOBUS_CONTRACT_(kind, cond, fmt, ...) \
    do { \
        if (!(cond)) [[unlikely]] { \
            ::nanobus::panic(kind " violated: (%s) at %s:%d: " fmt, \
                             #cond, __FILE__, \
                             __LINE__ __VA_OPT__(, ) __VA_ARGS__); \
        } \
    } while (0)

#else

#define NANOBUS_CONTRACT_(kind, cond, fmt, ...) NANOBUS_ASSUME_(cond)

#endif

/**
 * Precondition: the caller must guarantee `cond`. The tail is a
 * printf-style message, e.g.
 * NANOBUS_EXPECT(i < n, "wire index %u out of range", i);
 */
#define NANOBUS_EXPECT(cond, fmt, ...) \
    NANOBUS_CONTRACT_("precondition", cond, fmt __VA_OPT__(, ) __VA_ARGS__)

/** Postcondition / invariant: this code must have established `cond`. */
#define NANOBUS_ENSURE(cond, fmt, ...) \
    NANOBUS_CONTRACT_("postcondition", cond, \
                      fmt __VA_OPT__(, ) __VA_ARGS__)

#endif // NANOBUS_UTIL_CONTRACTS_HH
