#include "service/client.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstring>
#include <thread>

#include <time.h>
#include <unistd.h>

#include "util/rng.hpp"

namespace sipre::service
{

std::uint64_t
parseRetryAfterMs(const std::string &value, std::time_t now)
{
    if (value.empty())
        return 0;
    // Delta-seconds form: all digits.
    bool digits = true;
    for (const char c : value)
        digits = digits && std::isdigit(static_cast<unsigned char>(c));
    if (digits) {
        std::uint64_t seconds = 0;
        for (const char c : value) {
            seconds = seconds * 10 + static_cast<std::uint64_t>(c - '0');
            if (seconds > 3600) {
                seconds = 3600; // cap absurd server hints at an hour
                break;
            }
        }
        return seconds * 1000;
    }
    // HTTP-date form (IMF-fixdate, RFC 9110 §5.6.7). strptime leaves
    // unset fields alone, so start from a zeroed tm; timegm interprets
    // the result as UTC, which is what the mandatory "GMT" means.
    struct tm parsed {};
    const char *rest =
        ::strptime(value.c_str(), "%a, %d %b %Y %H:%M:%S GMT", &parsed);
    if (rest == nullptr || *rest != '\0')
        return 0;
    const std::time_t when = ::timegm(&parsed);
    if (when == static_cast<std::time_t>(-1) || when <= now)
        return 0;
    const auto delta = static_cast<std::uint64_t>(when - now);
    return std::min<std::uint64_t>(delta, 3600) * 1000;
}

namespace
{

/** Retry-After in milliseconds, 0 when absent/unparseable. */
std::uint64_t
retryAfterMs(const http::Response *response)
{
    if (response == nullptr)
        return 0;
    const std::string *value = response->header("Retry-After");
    if (value == nullptr)
        return 0;
    return parseRetryAfterMs(*value, std::time(nullptr));
}

} // namespace

std::uint64_t
RetryPolicy::backoffMs(unsigned attempt,
                       const http::Response *response) const
{
    std::uint64_t backoff = base_delay_ms;
    for (unsigned i = 1; i < attempt && backoff < max_delay_ms; ++i)
        backoff *= 2;
    backoff = std::min(backoff, max_delay_ms);
    // Deterministic jitter in [0.5, 1.0): same seed + attempt, same
    // delay — reproducible tests, decorrelated clients via the seed.
    Rng rng(jitter_seed ^ (0x9e3779b97f4a7c15ULL * attempt));
    backoff = static_cast<std::uint64_t>(
        static_cast<double>(backoff) * (0.5 + 0.5 * rng.uniform()));
    return std::min(std::max(backoff, retryAfterMs(response)),
                    max_delay_ms);
}

ClientOutcome
requestWithRetry(const std::string &host, std::uint16_t port,
                 const http::Request &request,
                 const RetryPolicy &policy)
{
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed_ms = [&start] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
    };

    ClientOutcome outcome;
    // The last attempt that got a response. When the budget ends the
    // call, an attempt that got none (typically one the deadline cut
    // short) says nothing new about the server: that response stands.
    ClientOutcome answered;
    const auto budgetSpent = [&outcome, &answered] {
        if (outcome.ok || !answered.ok)
            return outcome;
        answered.attempts = outcome.attempts;
        return answered;
    };
    const unsigned attempts = std::max(1u, policy.max_attempts);
    for (unsigned attempt = 1; attempt <= attempts; ++attempt) {
        // Clamp the per-attempt timeout to the remaining deadline
        // budget, so the last attempt cannot blow past it.
        int timeout_ms = policy.request_timeout_ms;
        if (policy.total_deadline_ms > 0) {
            const std::uint64_t elapsed = elapsed_ms();
            if (attempt > 1 && elapsed >= policy.total_deadline_ms)
                return budgetSpent();
            const std::uint64_t left = policy.total_deadline_ms - elapsed;
            if (timeout_ms < 0 ||
                static_cast<std::uint64_t>(timeout_ms) > left)
                timeout_ms = static_cast<int>(std::max<std::uint64_t>(
                    left, 1));
        }

        outcome.attempts = attempt;
        outcome.response = http::Response{};
        std::string error;
        bool got_response = false;
        const int fd = http::dialTcp(host, port, &error);
        if (fd >= 0) {
            got_response =
                http::roundTrip(fd, request, outcome.response, &error,
                                timeout_ms);
            ::close(fd);
        }
        outcome.ok = got_response;
        outcome.error = got_response ? std::string{} : error;
        if (got_response &&
            !RetryPolicy::retryableStatus(outcome.response.status))
            return outcome;
        if (got_response)
            answered = outcome;
        if (attempt == attempts)
            return outcome; // last word: the 429/503/error as-is
        const std::uint64_t delay = policy.backoffMs(
            attempt, got_response ? &outcome.response : nullptr);
        if (policy.total_deadline_ms > 0 &&
            elapsed_ms() + delay >= policy.total_deadline_ms)
            return budgetSpent(); // a sleep would overrun the budget
        if (delay > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
    }
    return outcome;
}

} // namespace sipre::service
