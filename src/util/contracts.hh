/**
 * @file
 * Contract macros: NANOBUS_EXPECT (preconditions) and NANOBUS_ENSURE
 * (postconditions / invariants).
 *
 * Policy (see docs/STATIC_ANALYSIS.md): the macros are checked in
 * every build. A violated contract panics with the stringified
 * condition, file, line, and the caller's printf-style message.
 * panic() is the right channel — a violated contract is a nanobus
 * bug, not a user error. Contracts state only true invariants: they
 * are not input validation (use fatal() or Result<T> for that) and
 * must never have side effects. Each check costs one predictable
 * branch, so keep them out of per-word loops.
 */

#ifndef NANOBUS_UTIL_CONTRACTS_HH
#define NANOBUS_UTIL_CONTRACTS_HH

#include "util/logging.hh"

#define NANOBUS_CONTRACT_(kind, cond, fmt, ...) \
    do { \
        if (!(cond)) [[unlikely]] { \
            ::nanobus::panic(kind " violated: (%s) at %s:%d: " fmt, \
                             #cond, __FILE__, \
                             __LINE__ __VA_OPT__(, ) __VA_ARGS__); \
        } \
    } while (0)

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
