/**
 * @file
 * Shared client-side resilience for everything that talks to
 * sipre_served: one retry policy (capped exponential backoff with
 * deterministic jitter, honoring Retry-After) and a dial+round-trip
 * helper with per-request timeouts. Used by tools/sipre_jobs,
 * tools/sipre_bench_client, and the chaos tests, so every client
 * backs off the same way instead of each inventing its own loop.
 */
#ifndef SIPRE_SERVICE_CLIENT_HPP
#define SIPRE_SERVICE_CLIENT_HPP

#include <cstdint>
#include <ctime>
#include <string>

#include "service/http.hpp"

namespace sipre::service
{

/**
 * Capped exponential backoff with deterministic jitter. The jitter
 * stream is fixed by `jitter_seed`, so a test (or a re-run) sees the
 * exact same delays.
 */
struct RetryPolicy
{
    unsigned max_attempts = 4;        ///< total tries (1 = no retry)
    std::uint64_t base_delay_ms = 50; ///< backoff start
    std::uint64_t max_delay_ms = 2000;///< backoff (and Retry-After) cap
    std::uint64_t jitter_seed = 0x5eedc11e47ULL;
    int request_timeout_ms = 30'000;  ///< per-attempt deadline; -1 none

    /**
     * Wall-clock budget (ms) for the whole requestWithRetry() call —
     * attempts plus backoff sleeps. 0 means unbounded (attempt count
     * is then the only limit). With a budget, no retry sleep starts
     * that would overrun it, and each attempt's request timeout is
     * clamped to the time remaining, so callers with their own
     * deadline (the cluster tier's failover walk) get the connection
     * back in time to try the next candidate.
     */
    std::uint64_t total_deadline_ms = 0;

    /**
     * Delay before the retry that follows `attempt` (1-based): the
     * jittered, capped exponential — raised to the server's
     * Retry-After (delta-seconds or HTTP-date, from `response`) when
     * that is larger, still capped at max_delay_ms.
     */
    std::uint64_t backoffMs(unsigned attempt,
                            const http::Response *response) const;

    /** Statuses worth retrying: backpressure (429) and draining (503). */
    static bool
    retryableStatus(int status)
    {
        return status == 429 || status == 503;
    }
};

/**
 * Result of requestWithRetry: the last attempt's outcome, except that
 * when the deadline budget ends the call after an attempt that got no
 * response, the last response received stands (`attempts` still counts
 * every try).
 */
struct ClientOutcome
{
    bool ok = false;         ///< a response was received (any status)
    http::Response response; ///< valid when ok
    std::string error;       ///< last transport error when !ok
    unsigned attempts = 0;   ///< tries performed (>= 1)

    unsigned
    retries() const
    {
        return attempts > 0 ? attempts - 1 : 0;
    }
};

/**
 * A Retry-After header value in milliseconds, relative to `now`.
 * Understands both RFC 9110 forms: delta-seconds ("120") and the
 * IMF-fixdate HTTP-date ("Fri, 08 Aug 2026 17:30:00 GMT" — a date at
 * or before `now` yields 0). Returns 0 for absent or unparseable
 * values. `now` is a parameter so tests can pin the clock.
 */
std::uint64_t parseRetryAfterMs(const std::string &value, std::time_t now);

/**
 * Dial host:port and exchange one request/response, retrying (fresh
 * connection each time) on transport failure, timeout, 429, and 503
 * according to `policy`. Never throws; a definite outcome is always
 * returned — the request is either answered or reported failed, not
 * silently lost. A nonzero policy.total_deadline_ms additionally bounds
 * the whole call in wall-clock time.
 */
ClientOutcome requestWithRetry(const std::string &host,
                               std::uint16_t port,
                               const http::Request &request,
                               const RetryPolicy &policy = {});

} // namespace sipre::service

#endif // SIPRE_SERVICE_CLIENT_HPP
