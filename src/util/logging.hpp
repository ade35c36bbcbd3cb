/**
 * @file
 * Error-reporting helpers in the spirit of gem5's panic()/fatal().
 *
 * panic()-class failures indicate a simulator bug (assertion style);
 * fatal()-class failures indicate a user/configuration error.
 */
#ifndef SIPRE_UTIL_LOGGING_HPP
#define SIPRE_UTIL_LOGGING_HPP

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

namespace sipre
{

/** Abort the process: an internal invariant was violated (simulator bug). */
[[noreturn]] inline void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

/** Exit with an error: the user supplied an invalid configuration. */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

/** Print a non-fatal warning for questionable-but-survivable conditions. */
inline void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

/**
 * SIPRE_ASSERT's failure path: panic() with "file:line: msg [cond]".
 * Out of line and cold, so the check costs only its compare and a
 * call the compiler can keep off the hot path.
 */
[[noreturn, gnu::cold]] void assertFailed(const char *file, int line,
                                          std::string_view msg,
                                          const char *cond);

} // namespace sipre

/**
 * Internal-invariant check that stays enabled in release builds.
 * Use for conditions that indicate a simulator bug if false.
 */
#define SIPRE_ASSERT(cond, msg)                                              \
    do {                                                                     \
        if (!(cond)) [[unlikely]]                                            \
            ::sipre::assertFailed(__FILE__, __LINE__, (msg), #cond);         \
    } while (0)

#endif // SIPRE_UTIL_LOGGING_HPP
