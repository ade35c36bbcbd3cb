/**
 * @file
 * Chaos suite for the fault-injection framework and the robustness it
 * buys: the spec grammar parses (and rejects) deterministically, the
 * injector's decisions replay bit-identically per seed, the shared
 * retry client never silently loses a request under injected socket
 * faults, the server evicts slow-loris and idle connections on its
 * deadlines, durable checkpoints survive injected fsync/rename faults
 * plus a simulated kill/restart without re-simulating completed
 * shards, corrupt job records are quarantined rather than wedging the
 * store, and /metrics accounts for every injected fault.
 */
#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "jobs/job_store.hpp"
#include "jobs/manager.hpp"
#include "jobs/sweep.hpp"
#include "service/client.hpp"
#include "service/engine.hpp"
#include "service/http.hpp"
#include "service/server.hpp"
#include "util/fault.hpp"
#include "util/fsio.hpp"
#include "util/rendezvous.hpp"

using namespace sipre;
using namespace sipre::service;

namespace
{

/**
 * Arms the global injector for one test and guarantees it is disabled
 * again on exit, whatever the test body does. Every test that injects
 * faults goes through this so the suite's tests can't poison each
 * other (the injector is process-wide by design).
 */
struct FaultScope
{
    explicit FaultScope(const std::string &spec)
    {
        std::string error;
        EXPECT_TRUE(fault::Injector::global().configure(spec, &error))
            << error;
    }
    ~FaultScope() { fault::Injector::global().configure(""); }
};

/** A unique scratch directory, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char name[] = "/tmp/sipre_faults_test_XXXXXX";
        path = ::mkdtemp(name);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
};

std::string
simulateBody(const std::string &workload, std::uint32_t ftq,
             std::uint64_t instructions = 30'000)
{
    return "{\"workload\":\"" + workload +
           "\",\"instructions\":" + std::to_string(instructions) +
           ",\"ftq\":" + std::to_string(ftq) + "}";
}

http::Request
postSimulate(std::string body)
{
    http::Request request;
    request.method = "POST";
    request.target = "/simulate";
    request.headers.emplace_back("Content-Type", "application/json");
    request.body = std::move(body);
    return request;
}

http::Request
get(const std::string &target)
{
    http::Request request;
    request.target = target;
    return request;
}

/** Extract the value of `name` from Prometheus-style metrics text. */
std::uint64_t
metricValue(const std::string &metrics, const std::string &name)
{
    const std::string needle = "\n" + name + " ";
    const std::size_t pos = metrics.find(needle);
    EXPECT_NE(pos, std::string::npos) << name << " missing";
    if (pos == std::string::npos)
        return ~0ull;
    return std::stoull(metrics.substr(pos + needle.size()));
}

/** Parse a sweep spec the test expects to be valid. */
jobs::SweepSpec
parseSpecOk(const std::string &body)
{
    jobs::SweepSpec spec;
    std::string error;
    EXPECT_TRUE(jobs::parseSweepSpec(body, spec, error)) << error;
    return spec;
}

/** Poll until the job is terminal (or the deadline passes). */
jobs::JobProgress
awaitTerminal(jobs::JobManager &manager, std::uint64_t id,
              int timeout_s = 120)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
        const auto progress = manager.progress(id);
        if (progress && jobs::jobStateIsTerminal(progress->state))
            return *progress;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "job " << id << " did not reach a terminal state";
    return jobs::JobProgress{};
}

std::size_t
filesIn(const std::string &dir, const std::string &suffix = "")
{
    std::size_t count = 0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();
        if (suffix.empty() ||
            (name.size() >= suffix.size() &&
             name.substr(name.size() - suffix.size()) == suffix))
            ++count;
    }
    return count;
}

} // namespace

// ---------------------------------------------------- spec grammar

TEST(FaultSpec, FullGrammarParses)
{
    std::array<fault::SiteRule, fault::kSiteCount> rules{};
    std::uint64_t seed = 0;
    std::string error;
    ASSERT_TRUE(fault::parseSpec(
        "seed=42,recv:err=0.25,write:short=0.5,fsync:fail=after:3,"
        "engine:delay=50ms,shard:delay=7",
        rules, seed, error))
        << error;
    EXPECT_EQ(seed, 42u);
    const auto &recv =
        rules[static_cast<std::size_t>(fault::Site::kRecv)];
    EXPECT_DOUBLE_EQ(recv.err_p, 0.25);
    // "write" is an alias for the send site.
    const auto &send =
        rules[static_cast<std::size_t>(fault::Site::kSend)];
    EXPECT_DOUBLE_EQ(send.short_p, 0.5);
    const auto &fsync =
        rules[static_cast<std::size_t>(fault::Site::kFsync)];
    EXPECT_TRUE(fsync.fail_after_set);
    EXPECT_EQ(fsync.fail_after, 3u);
    const auto &engine =
        rules[static_cast<std::size_t>(fault::Site::kEngine)];
    EXPECT_EQ(engine.delay_ms, 50u);
    // A bare number is milliseconds too.
    const auto &shard =
        rules[static_cast<std::size_t>(fault::Site::kShard)];
    EXPECT_EQ(shard.delay_ms, 7u);
    EXPECT_FALSE(
        rules[static_cast<std::size_t>(fault::Site::kRename)].active());
}

TEST(FaultSpec, ConnectAndPeerSitesParse)
{
    std::array<fault::SiteRule, fault::kSiteCount> rules{};
    std::uint64_t seed = 0;
    std::string error;
    ASSERT_TRUE(fault::parseSpec(
        "connect:fail=after:2,peer:err=0.5,peer:delay=9ms", rules,
        seed, error))
        << error;
    const auto &connect =
        rules[static_cast<std::size_t>(fault::Site::kConnect)];
    EXPECT_TRUE(connect.fail_after_set);
    EXPECT_EQ(connect.fail_after, 2u);
    const auto &peer =
        rules[static_cast<std::size_t>(fault::Site::kPeer)];
    EXPECT_DOUBLE_EQ(peer.err_p, 0.5);
    EXPECT_EQ(peer.delay_ms, 9u);
    EXPECT_EQ(fault::siteName(fault::Site::kConnect),
              std::string("connect"));
    EXPECT_EQ(fault::siteName(fault::Site::kPeer), std::string("peer"));
}

TEST(FaultSpec, MalformedSpecsAreRejectedWithDiagnostics)
{
    std::array<fault::SiteRule, fault::kSiteCount> rules{};
    std::uint64_t seed = 0;
    std::string error;
    for (const char *bad :
         {"recv", "recv:err", "banana:err=0.5", "recv:banana=0.5",
          "recv:err=1.5", "recv:err=nope", "fsync:fail=3",
          "fsync:fail=after:x", "engine:delay=soon", "seed=abc"}) {
        error.clear();
        EXPECT_FALSE(fault::parseSpec(bad, rules, seed, error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
    // Empty entries (and the empty spec) are fine — they program
    // nothing.
    EXPECT_TRUE(fault::parseSpec("", rules, seed, error));
    EXPECT_TRUE(fault::parseSpec(",,recv:err=0.1,", rules, seed, error));
}

TEST(FaultSpec, BadSpecLeavesInjectorConfigurationIntact)
{
    FaultScope scope("recv:err=1");
    fault::Injector &injector = fault::Injector::global();
    std::string error;
    EXPECT_FALSE(injector.configure("recv:err=oops", &error));
    EXPECT_TRUE(injector.enabled())
        << "a rejected spec must not tear down the active one";
    EXPECT_TRUE(fault::at(fault::Site::kRecv).fail);
}

// ------------------------------------------------ injector decisions

TEST(FaultInjector, DisabledInjectorDecidesNothing)
{
    fault::Injector &injector = fault::Injector::global();
    ASSERT_TRUE(injector.configure(""));
    EXPECT_FALSE(injector.enabled());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(static_cast<bool>(fault::at(fault::Site::kRecv)));
    // Disabled hooks don't even count operations.
    EXPECT_EQ(injector.operations(fault::Site::kRecv), 0u);
}

TEST(FaultInjector, DecisionsReplayBitIdenticallyPerSeed)
{
    fault::Injector &injector = fault::Injector::global();
    const std::string spec = "seed=7,recv:err=0.3,recv:short=0.2";
    auto sample = [&] {
        std::vector<int> outcomes;
        for (int i = 0; i < 200; ++i) {
            const fault::Decision d =
                injector.decide(fault::Site::kRecv);
            outcomes.push_back(d.fail ? 2 : (d.shorten ? 1 : 0));
        }
        return outcomes;
    };
    ASSERT_TRUE(injector.configure(spec));
    const std::vector<int> first = sample();
    ASSERT_TRUE(injector.configure(spec));
    const std::vector<int> second = sample();
    EXPECT_EQ(first, second);
    // The probabilities actually bite: some of each outcome appears.
    EXPECT_NE(std::count(first.begin(), first.end(), 0), 0);
    EXPECT_NE(std::count(first.begin(), first.end(), 1), 0);
    EXPECT_NE(std::count(first.begin(), first.end(), 2), 0);
    ASSERT_TRUE(injector.configure(""));
}

TEST(FaultInjector, FailAfterNTripsExactlyAfterN)
{
    FaultScope scope("fsync:fail=after:3");
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(fault::at(fault::Site::kFsync).fail) << i;
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(fault::at(fault::Site::kFsync).fail) << i;
    fault::Injector &injector = fault::Injector::global();
    EXPECT_EQ(injector.operations(fault::Site::kFsync), 8u);
    EXPECT_EQ(injector.injected(fault::Site::kFsync), 5u);
    EXPECT_EQ(injector.injectedTotal(), 5u);
}

TEST(FaultInjector, MetricsTextExposesLabeledCounters)
{
    FaultScope scope("shard:fail=after:0");
    (void)fault::at(fault::Site::kShard);
    (void)fault::at(fault::Site::kShard);
    const std::string text =
        fault::Injector::global().metricsText();
    EXPECT_EQ(metricValue(
                  "\n" + text,
                  "sipre_faults_injected_total{site=\"shard\"}"),
              2u);
    EXPECT_EQ(metricValue(
                  "\n" + text,
                  "sipre_fault_ops_total{site=\"shard\"}"),
              2u);
}

// ------------------------------------------------------ retry policy

TEST(RetryPolicy, BackoffIsDeterministicCappedAndJittered)
{
    RetryPolicy policy;
    policy.base_delay_ms = 100;
    policy.max_delay_ms = 400;
    for (unsigned attempt = 1; attempt <= 6; ++attempt) {
        const std::uint64_t a = policy.backoffMs(attempt, nullptr);
        const std::uint64_t b = policy.backoffMs(attempt, nullptr);
        EXPECT_EQ(a, b) << "same attempt must give the same delay";
        // Jitter keeps the delay in [cap/2, cap] of the exponential.
        const std::uint64_t exp =
            std::min<std::uint64_t>(100u << (attempt - 1), 400);
        EXPECT_GE(a, exp / 2) << "attempt " << attempt;
        EXPECT_LE(a, policy.max_delay_ms) << "attempt " << attempt;
    }
    // Different seeds decorrelate.
    RetryPolicy other = policy;
    other.jitter_seed ^= 1;
    bool any_different = false;
    for (unsigned attempt = 1; attempt <= 6; ++attempt)
        any_different |=
            policy.backoffMs(attempt, nullptr) !=
            other.backoffMs(attempt, nullptr);
    EXPECT_TRUE(any_different);
}

TEST(RetryPolicy, RetryAfterIsHonoredAsAFloorAndCapped)
{
    RetryPolicy policy;
    policy.base_delay_ms = 10;
    policy.max_delay_ms = 1500;

    http::Response response;
    response.headers.emplace_back("Retry-After", "1");
    EXPECT_GE(policy.backoffMs(1, &response), 1000u);

    response.headers.clear();
    response.headers.emplace_back("Retry-After", "3600");
    EXPECT_EQ(policy.backoffMs(1, &response), policy.max_delay_ms);

    // A future HTTP-date is honored like a huge delta: capped at
    // max_delay_ms. (Year 9999 keeps this green for a while.)
    response.headers.clear();
    response.headers.emplace_back("Retry-After",
                                  "Fri, 01 Jan 9999 00:00:00 GMT");
    EXPECT_EQ(policy.backoffMs(1, &response), policy.max_delay_ms);

    // A past HTTP-date (or garbage) falls back to plain backoff.
    response.headers.clear();
    response.headers.emplace_back("Retry-After",
                                  "Thu, 01 Jan 1970 00:00:01 GMT");
    EXPECT_LE(policy.backoffMs(1, &response), 10u);
    response.headers.clear();
    response.headers.emplace_back("Retry-After", "next tuesday");
    EXPECT_LE(policy.backoffMs(1, &response), 10u);

    EXPECT_TRUE(RetryPolicy::retryableStatus(429));
    EXPECT_TRUE(RetryPolicy::retryableStatus(503));
    EXPECT_FALSE(RetryPolicy::retryableStatus(200));
    EXPECT_FALSE(RetryPolicy::retryableStatus(400));
}

TEST(RetryPolicy, ParseRetryAfterHandlesBothRfc9110Forms)
{
    // Delta-seconds, with the hour cap.
    EXPECT_EQ(parseRetryAfterMs("0", 0), 0u);
    EXPECT_EQ(parseRetryAfterMs("7", 0), 7'000u);
    EXPECT_EQ(parseRetryAfterMs("3600", 0), 3'600'000u);
    EXPECT_EQ(parseRetryAfterMs("999999", 0), 3'600'000u);

    // IMF-fixdate against a pinned clock (the epoch), so the test
    // never depends on the machine's real time.
    EXPECT_EQ(
        parseRetryAfterMs("Thu, 01 Jan 1970 00:01:40 GMT", 0),
        100'000u);
    // At or before `now` means "retry immediately".
    EXPECT_EQ(parseRetryAfterMs("Thu, 01 Jan 1970 00:00:00 GMT", 0),
              0u);
    EXPECT_EQ(parseRetryAfterMs("Thu, 01 Jan 1970 00:01:40 GMT",
                                1'000'000),
              0u);
    // Far future: capped at an hour.
    EXPECT_EQ(parseRetryAfterMs("Fri, 02 Jan 1970 00:00:00 GMT", 0),
              3'600'000u);

    // Unparseable values yield 0 (plain backoff).
    EXPECT_EQ(parseRetryAfterMs("", 0), 0u);
    EXPECT_EQ(parseRetryAfterMs("next tuesday", 0), 0u);
    EXPECT_EQ(parseRetryAfterMs("12 seconds", 0), 0u);
    EXPECT_EQ(
        parseRetryAfterMs("Thu, 01 Jan 1970 00:01:40 GMT extra", 0),
        0u);
}

TEST(RetryPolicy, TotalDeadlineBoundsWallClockUnderEndless429)
{
    // workers=0 + queue=0: every submit is backpressure, so the server
    // answers 429 forever and only the deadline can end the retry loop.
    EngineOptions engine_options;
    engine_options.workers = 0;
    engine_options.queue_capacity = 0;
    SimulationEngine engine(engine_options);
    ServiceServer server(engine, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    RetryPolicy policy;
    policy.max_attempts = 1000; // the attempt cap must not be the bound
    policy.base_delay_ms = 40;
    policy.max_delay_ms = 40;
    policy.total_deadline_ms = 300;

    const auto t0 = std::chrono::steady_clock::now();
    const ClientOutcome outcome = requestWithRetry(
        "127.0.0.1", server.port(),
        postSimulate(simulateBody("secret_crypto52", 4)), policy);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

    // A definite outcome (the last 429), well under the attempt cap,
    // within the budget plus one attempt's slack.
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.response.status, 429);
    EXPECT_LT(outcome.attempts, 20u);
    EXPECT_GE(outcome.attempts, 2u);
    EXPECT_LT(ms, 5'000);
    server.shutdown();
}

// The budget runs out inside an attempt the server never answers. That
// attempt says nothing about the server, so the 429 before it stands —
// the race TotalDeadlineBoundsWallClockUnderEndless429 lost when a retry
// started with a sliver of the budget left.
TEST(RetryPolicy, AttemptCutShortByTheDeadlineKeepsTheLastAnswer)
{
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr *>(&addr), len),
              0);
    ASSERT_EQ(::listen(listener, 4), 0);
    ASSERT_EQ(
        ::getsockname(listener, reinterpret_cast<sockaddr *>(&addr), &len),
        0);
    // The first connection gets a 429; the second is held open and
    // never answered, until the client hangs up.
    std::thread server([listener] {
        std::string buffer;
        const int first = ::accept(listener, nullptr, nullptr);
        http::recvSome(first, buffer, 1'000);
        http::sendAll(first, "HTTP/1.1 429 Too Many Requests\r\n"
                             "Content-Length: 0\r\n\r\n");
        ::close(first);
        const int second = ::accept(listener, nullptr, nullptr);
        while (http::recvSome(second, buffer, 5'000) == http::IoStatus::kOk)
            ;
        ::close(second);
    });

    RetryPolicy policy;
    policy.max_attempts = 10;
    policy.base_delay_ms = 10;
    policy.max_delay_ms = 10;
    policy.total_deadline_ms = 200;
    const ClientOutcome outcome = requestWithRetry(
        "127.0.0.1", ntohs(addr.sin_port),
        postSimulate(simulateBody("secret_crypto52", 4)), policy);
    server.join();
    ::close(listener);

    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.response.status, 429);
    EXPECT_EQ(outcome.attempts, 2u);
}

// -------------------------------------------------- socket I/O edges

TEST(FaultHttpIo, RecvSomeTimesOutOnASilentPeer)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::string buffer;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(http::recvSome(fds[0], buffer, 100),
              http::IoStatus::kTimeout);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_GE(ms, 90);
    EXPECT_LT(ms, 5000);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FaultHttpIo, SendAllTimesOutWhenThePeerStopsReading)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Nobody reads fds[1]; a large write must hit the deadline, not
    // block forever.
    const std::string blob(16u << 20, 'x');
    EXPECT_FALSE(http::sendAll(fds[0], blob, 150));
    EXPECT_EQ(errno, ETIMEDOUT);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FaultHttpIo, SendAllSurvivesInjectedShortWrites)
{
    FaultScope scope("seed=3,send:short=1");
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string blob(64 * 1024, 'y');
    std::string received;
    std::thread reader([&] {
        char chunk[4096];
        for (;;) {
            const ssize_t n = ::recv(fds[1], chunk, sizeof chunk, 0);
            if (n <= 0)
                break;
            received.append(chunk, static_cast<std::size_t>(n));
        }
    });
    EXPECT_TRUE(http::sendAll(fds[0], blob, 10'000));
    ::shutdown(fds[0], SHUT_WR);
    reader.join();
    EXPECT_EQ(received, blob) << "short writes must not drop bytes";
    ::close(fds[0]);
    ::close(fds[1]);
}

// ------------------------------------------- server deadline defense

TEST(FaultServer, SlowLorisGets408WhileOthersAreServed)
{
    SimulationEngine engine(EngineOptions{});
    ServerOptions options;
    options.read_timeout_ms = 300;
    options.idle_timeout_ms = 0; // isolate the read deadline
    ServiceServer server(engine, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // The hostile client dribbles a few header bytes and stalls.
    const int loris = http::dialTcp("127.0.0.1", server.port(), &error);
    ASSERT_GE(loris, 0) << error;
    ASSERT_GT(::send(loris, "POST /sim", 9, MSG_NOSIGNAL), 0);

    // A well-behaved request on another connection completes while the
    // loris is still holding its socket open.
    const http::Request request = get("/healthz");
    http::Response healthy;
    {
        const int fd =
            http::dialTcp("127.0.0.1", server.port(), &error);
        ASSERT_GE(fd, 0) << error;
        ASSERT_TRUE(
            http::roundTrip(fd, request, healthy, &error, 5'000))
            << error;
        ::close(fd);
    }
    EXPECT_EQ(healthy.status, 200);

    // The loris gets a 408 and its connection closed within the
    // deadline (generous wall-clock bound for slow CI).
    std::string wire;
    char chunk[1024];
    const auto t0 = std::chrono::steady_clock::now();
    for (;;) {
        const ssize_t n = ::recv(loris, chunk, sizeof chunk, 0);
        if (n <= 0)
            break;
        wire.append(chunk, static_cast<std::size_t>(n));
    }
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    ::close(loris);
    EXPECT_NE(wire.find("408"), std::string::npos) << wire;
    EXPECT_NE(wire.find("request read deadline exceeded"),
              std::string::npos);
    EXPECT_LT(ms, 30'000);
    EXPECT_EQ(server.connectionsTimedOut(), 1u);
    EXPECT_EQ(server.connectionsIdleReaped(), 0u);

    // The eviction is visible on /metrics.
    http::Response metrics;
    {
        const int fd =
            http::dialTcp("127.0.0.1", server.port(), &error);
        ASSERT_GE(fd, 0) << error;
        ASSERT_TRUE(http::roundTrip(fd, get("/metrics"), metrics,
                                    &error, 5'000))
            << error;
        ::close(fd);
    }
    ASSERT_EQ(metrics.status, 200);
    EXPECT_EQ(metricValue(metrics.body,
                          "sipre_connections_timed_out_total"),
              1u);
    server.shutdown();
}

TEST(FaultServer, IdleKeepAliveConnectionsAreReaped)
{
    SimulationEngine engine(EngineOptions{});
    ServerOptions options;
    options.idle_timeout_ms = 150;
    ServiceServer server(engine, options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const int fd = http::dialTcp("127.0.0.1", server.port(), &error);
    ASSERT_GE(fd, 0) << error;
    http::Response response;
    ASSERT_TRUE(
        http::roundTrip(fd, get("/healthz"), response, &error, 5'000))
        << error;
    EXPECT_EQ(response.status, 200);

    // Say nothing further: the reaper must close the connection (EOF
    // on our side) instead of pinning a server thread.
    char byte = 0;
    const ssize_t n = ::recv(fd, &byte, 1, 0);
    EXPECT_EQ(n, 0) << "expected EOF from the idle reaper";
    ::close(fd);
    EXPECT_EQ(server.connectionsIdleReaped(), 1u);
    EXPECT_EQ(server.connectionsTimedOut(), 0u);

    const http::Response metrics =
        [&] {
            const int mfd =
                http::dialTcp("127.0.0.1", server.port(), &error);
            EXPECT_GE(mfd, 0) << error;
            http::Response out;
            EXPECT_TRUE(http::roundTrip(mfd, get("/metrics"), out,
                                        &error, 5'000))
                << error;
            ::close(mfd);
            return out;
        }();
    EXPECT_EQ(metricValue(metrics.body,
                          "sipre_connections_idle_reaped_total"),
              1u);
    server.shutdown();
}

// ------------------------------------------- socket chaos, no losses

TEST(FaultChaos, RetryingClientLosesNoRequestUnderSocketFaults)
{
    SimulationEngine engine(EngineOptions{});
    ServiceServer server(engine, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Both ends share the process-wide injector, so both the server's
    // and the client's reads/writes fail — the worst case.
    FaultScope scope("seed=11,recv:err=0.08,send:err=0.08");
    fault::Injector &injector = fault::Injector::global();

    RetryPolicy policy;
    policy.max_attempts = 12;
    policy.base_delay_ms = 1;
    policy.max_delay_ms = 20;
    policy.request_timeout_ms = 10'000;

    constexpr int kRequests = 24;
    int answered = 0;
    for (int i = 0; i < kRequests; ++i) {
        const ClientOutcome outcome = requestWithRetry(
            "127.0.0.1", server.port(),
            postSimulate(simulateBody("secret_crypto52", 4)), policy);
        // The contract: a definite outcome per request, never silence.
        if (outcome.ok) {
            EXPECT_EQ(outcome.response.status, 200);
            ++answered;
        } else {
            EXPECT_FALSE(outcome.error.empty());
            EXPECT_EQ(outcome.attempts, policy.max_attempts);
        }
    }
    // With 12 attempts against an 8% fault rate, effectively every
    // request gets through.
    EXPECT_EQ(answered, kRequests);
    EXPECT_GT(injector.injectedTotal(), 0u)
        << "the chaos run injected nothing — spec or seed is wrong";

    // /metrics accounts for the injections: the labeled counters are
    // present and at least as large as what we observed before the
    // fetch (they keep counting during it).
    const std::uint64_t recv_before =
        injector.injected(fault::Site::kRecv);
    const std::uint64_t send_before =
        injector.injected(fault::Site::kSend);
    const ClientOutcome metrics = requestWithRetry(
        "127.0.0.1", server.port(), get("/metrics"), policy);
    ASSERT_TRUE(metrics.ok) << metrics.error;
    EXPECT_GE(metricValue(metrics.response.body,
                          "sipre_faults_injected_total{site=\"recv\"}"),
              recv_before);
    EXPECT_GE(metricValue(metrics.response.body,
                          "sipre_faults_injected_total{site=\"send\"}"),
              send_before);
    EXPECT_GE(metricValue(metrics.response.body,
                          "sipre_fault_ops_total{site=\"recv\"}"),
              recv_before);
    server.shutdown();
}

TEST(FaultChaos, ConnectFaultFailsDialsWithADefiniteOutcome)
{
    SimulationEngine engine(EngineOptions{});
    ServiceServer server(engine, ServerOptions{});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    {
        FaultScope scope("connect:fail=after:0");
        std::string dial_error;
        EXPECT_LT(http::dialTcp("127.0.0.1", server.port(),
                                &dial_error),
                  0);
        EXPECT_NE(dial_error.find("injected connect fault"),
                  std::string::npos)
            << dial_error;

        // The retry client exhausts its attempts and reports the
        // failure — no silent loss, no hang.
        RetryPolicy policy;
        policy.max_attempts = 3;
        policy.base_delay_ms = 1;
        policy.max_delay_ms = 2;
        const ClientOutcome outcome = requestWithRetry(
            "127.0.0.1", server.port(), get("/healthz"), policy);
        EXPECT_FALSE(outcome.ok);
        EXPECT_EQ(outcome.attempts, 3u);
        EXPECT_FALSE(outcome.error.empty());
    }

    // Faults off: the same dial works again.
    const ClientOutcome ok =
        requestWithRetry("127.0.0.1", server.port(), get("/healthz"));
    EXPECT_TRUE(ok.ok) << ok.error;
    server.shutdown();
}

TEST(FaultChaos, EngineFaultFailsRequestsWithStructuredError)
{
    SimulationEngine engine(EngineOptions{});
    SimRequest request;
    request.workload = "secret_crypto52";
    request.instructions = 30'000;
    request.ftq_entries = 4;
    {
        FaultScope scope("engine:fail=after:0");
        const SubmitOutcome failed = engine.submit(request);
        EXPECT_EQ(failed.status, SubmitStatus::kFailed);
        EXPECT_EQ(failed.error, "injected engine fault");
    }
    // Faults off again: the same request now runs to completion (the
    // failure was never cached).
    const SubmitOutcome ok = engine.submit(request);
    EXPECT_EQ(ok.status, SubmitStatus::kOk);
    ASSERT_NE(ok.result, nullptr);
}

// --------------------------------------- durable checkpoints + crash

TEST(FaultPersistence, CompletedShardsSurviveFsyncFaultsAndRestart)
{
    TempDir dir;
    const jobs::SweepSpec spec = parseSpecOk(
        R"({"workloads":["secret_crypto52"],"instructions":30000,)"
        R"("ftq":[4,6,8,10]})");

    std::uint64_t id = 0;
    {
        SimulationEngine engine(EngineOptions{});
        jobs::JobManagerOptions options;
        options.store_dir = dir.path;
        options.shard_workers = 1; // deterministic checkpoint order
        jobs::JobManager manager(engine, options);

        // Each durable checkpoint costs two fsyncs (tmp file + dir).
        // Budget exactly two commits — the submit record and the
        // first shard completion — then the disk "breaks".
        FaultScope scope("fsync:fail=after:4");
        const jobs::JobSubmitOutcome submitted = manager.submit(spec);
        ASSERT_EQ(submitted.status, jobs::JobSubmitStatus::kOk);
        id = submitted.id;
        const jobs::JobProgress progress = awaitTerminal(manager, id);
        EXPECT_EQ(progress.state, jobs::JobState::kCompleted);
        EXPECT_EQ(progress.shards_done, 4u);
        EXPECT_GT(
            fault::Injector::global().injected(fault::Site::kFsync),
            0u);
        // The manager (and its in-memory state) dies here: the only
        // survivor is whatever reached the disk durably.
    }

    // Crash-atomicity: whatever is on disk is a complete, valid record
    // — one durable checkpoint behind, never torn — and no stale tmp
    // files are left around.
    const std::string path = jobs::jobRecordPath(dir.path, id);
    ASSERT_TRUE(std::filesystem::exists(path));
    EXPECT_EQ(filesIn(dir.path, ".tmp"), 0u);
    jobs::JobRecord record;
    ASSERT_TRUE(jobs::loadJobRecord(path, record))
        << "the surviving record must parse cleanly";
    EXPECT_EQ(record.doneShards(), 1u)
        << "exactly the checkpoint that was durably committed";

    // Restart on a fresh engine (empty caches): the resumed job reruns
    // only the shards the durable record lacks.
    SimulationEngine engine2(EngineOptions{});
    jobs::JobManagerOptions options2;
    options2.store_dir = dir.path;
    options2.shard_workers = 2;
    jobs::JobManager manager2(engine2, options2);
    EXPECT_EQ(manager2.resumedJobs(), 1u);
    EXPECT_EQ(manager2.quarantinedRecords(), 0u);
    const jobs::JobProgress resumed = awaitTerminal(manager2, id);
    EXPECT_EQ(resumed.state, jobs::JobState::kCompleted);
    EXPECT_EQ(resumed.shards_done, 4u);
    EXPECT_EQ(engine2.stats().sim_runs, 3u)
        << "the durably completed shard must not be re-simulated";
}

TEST(FaultPersistence, RenameFaultsLeaveThePreviousRecordIntact)
{
    TempDir dir;
    const jobs::SweepSpec spec = parseSpecOk(
        R"({"workloads":["secret_crypto52"],"instructions":30000})");

    SimulationEngine engine(EngineOptions{});
    jobs::JobManagerOptions options;
    options.store_dir = dir.path;
    options.shard_workers = 1;
    std::uint64_t id = 0;
    {
        jobs::JobManager manager(engine, options);
        const jobs::JobSubmitOutcome submitted = manager.submit(spec);
        ASSERT_EQ(submitted.status, jobs::JobSubmitStatus::kOk);
        id = submitted.id;
        awaitTerminal(manager, id);
    }
    const std::string path = jobs::jobRecordPath(dir.path, id);
    std::ostringstream before;
    before << std::ifstream(path).rdbuf();
    ASSERT_FALSE(before.str().empty());

    // Every rename now fails: new checkpoints can't land, but the
    // published record must survive byte-for-byte and no tmp files
    // may accumulate.
    {
        FaultScope scope("rename:fail=after:0");
        jobs::JobManager manager(engine, options);
        const jobs::JobSubmitOutcome submitted = manager.submit(spec);
        ASSERT_EQ(submitted.status, jobs::JobSubmitStatus::kOk);
        awaitTerminal(manager, submitted.id);
    }
    std::ostringstream after;
    after << std::ifstream(path).rdbuf();
    EXPECT_EQ(after.str(), before.str());
    EXPECT_EQ(filesIn(dir.path, ".tmp"), 0u);
}

TEST(FaultPersistence, ResultCacheFlushFailsCleanlyUnderFsyncFaults)
{
    TempDir dir;
    const std::string cache = dir.path + "/results.cache";
    SimulationEngine engine(EngineOptions{});
    SimRequest request;
    request.workload = "secret_crypto52";
    request.instructions = 30'000;
    request.ftq_entries = 4;
    ASSERT_EQ(engine.submit(request).status, SubmitStatus::kOk);

    {
        FaultScope scope("fsync:fail=after:0");
        EXPECT_LT(engine.saveResultCache(cache), 0);
        EXPECT_FALSE(std::filesystem::exists(cache));
        EXPECT_EQ(filesIn(dir.path, ".tmp"), 0u);
    }
    // Faults off: the flush lands and warm-starts a fresh engine.
    EXPECT_EQ(engine.saveResultCache(cache), 1);
    SimulationEngine engine2(EngineOptions{});
    EXPECT_EQ(engine2.loadResultCache(cache), 1);
}

// ------------------------------------------------- corrupt store load

TEST(FaultQuarantine, CorruptRecordsAreQuarantinedRestLoads)
{
    TempDir dir;
    const jobs::SweepSpec spec = parseSpecOk(
        R"({"workloads":["secret_crypto52"],"instructions":30000})");

    // One genuinely valid record, written the same way the manager
    // writes them.
    jobs::JobRecord valid;
    valid.id = 1;
    valid.state = jobs::JobState::kQueued;
    valid.spec = spec;
    for (auto &request : jobs::expandSweep(spec)) {
        jobs::ShardRecord shard;
        shard.key = request.canonicalKey();
        shard.request = std::move(request);
        valid.shards.push_back(std::move(shard));
    }
    ASSERT_TRUE(jobs::saveJobRecord(dir.path, valid));
    std::ostringstream good_stream;
    good_stream << std::ifstream(jobs::jobRecordPath(dir.path, 1))
                       .rdbuf();
    const std::string good = good_stream.str();
    ASSERT_FALSE(good.empty());

    auto plant = [&](std::uint64_t id, const std::string &content) {
        std::ofstream os(jobs::jobRecordPath(dir.path, id));
        os << content;
    };
    // Truncated mid-record, garbage version line, forged shard key,
    // and a zero-byte file.
    std::string forged = good;
    const std::size_t key_pos = forged.find("&ftq=");
    ASSERT_NE(key_pos, std::string::npos);
    forged.replace(key_pos, 5, "&ftQ="); // same length, different key
    plant(2, good.substr(0, good.size() / 2));
    plant(3, "sipre-job 999\n" + good.substr(good.find('\n') + 1));
    plant(4, forged);
    plant(5, "");

    SimulationEngine engine(EngineOptions{});
    jobs::JobManagerOptions options;
    options.store_dir = dir.path;
    options.shard_workers = 0; // load-only: nothing executes
    jobs::JobManager manager(engine, options);

    EXPECT_EQ(manager.quarantinedRecords(), 4u);
    EXPECT_EQ(manager.stats().quarantined, 4u);
    // The valid record is the only one left in the store...
    EXPECT_NE(manager.progress(1), std::nullopt);
    EXPECT_EQ(manager.list().size(), 1u);
    // ...the corrupt ones moved (not copied, not deleted) into
    // quarantine/ ...
    EXPECT_EQ(filesIn(dir.path + "/quarantine"), 4u);
    for (const std::uint64_t id : {2ull, 3ull, 4ull, 5ull})
        EXPECT_FALSE(std::filesystem::exists(
            jobs::jobRecordPath(dir.path, id)))
            << "job_" << id;
    // ...and a second incarnation sees a clean store: nothing further
    // to quarantine.
    jobs::JobManager manager2(engine, options);
    EXPECT_EQ(manager2.quarantinedRecords(), 0u);
    EXPECT_EQ(manager2.list().size(), 1u);
}

TEST(FaultQuarantine, CorruptRecordDoesNotPoisonClusterFailover)
{
    // The interplay the cluster tier must get right: a node with a
    // corrupt job record quarantines it locally and still serves as a
    // full cluster member — fresh campaigns shard across the peers and
    // every shard executes exactly once.
    TempDir dir_a;
    {
        std::ofstream os(jobs::jobRecordPath(dir_a.path, 3));
        os << "garbage record";
    }

    SimulationEngine engine_a(EngineOptions{});
    SimulationEngine engine_b(EngineOptions{});
    ServiceServer server_b(engine_b, ServerOptions{});
    // B's tier can only be built once its ephemeral port is known, but
    // handlers must be registered before start() — forward through the
    // not-yet-filled pointer.
    std::unique_ptr<cluster::ClusterTier> tier_b;
    server_b.addHandler(
        [&tier_b](const http::Request &request)
            -> std::optional<http::Response> {
            if (tier_b == nullptr)
                return std::nullopt;
            return tier_b->handle(request);
        });
    std::string error;
    ASSERT_TRUE(server_b.start(&error)) << error;
    const std::string node_b =
        "127.0.0.1:" + std::to_string(server_b.port());

    const jobs::SweepSpec spec = parseSpecOk(
        R"({"workloads":["secret_crypto52"],"instructions":30000,)"
        R"("ftq":[4,6,8,10,12,14]})");
    auto requests = jobs::expandSweep(spec);
    ASSERT_EQ(requests.size(), 6u);

    // B's port is ephemeral, so pick A's (never-dialed) identity such
    // that the rendezvous hash splits the shards across both nodes —
    // deterministic for this run, never flaky.
    std::string self_a;
    for (int candidate = 1; candidate <= 64 && self_a.empty();
         ++candidate) {
        const std::string name =
            "127.0.0.1:" + std::to_string(candidate);
        std::size_t owned_by_b = 0;
        for (const auto &request : requests)
            owned_by_b += rendezvousOwner(request.canonicalKey(),
                                          {name, node_b}) == node_b;
        if (owned_by_b > 0 && owned_by_b < requests.size())
            self_a = name;
    }
    ASSERT_FALSE(self_a.empty());

    cluster::ClusterOptions cluster_options;
    cluster_options.self = self_a;
    cluster_options.peers = {self_a, node_b};
    cluster_options.proxy_policy.max_attempts = 2;
    cluster_options.proxy_policy.base_delay_ms = 1;
    cluster_options.proxy_policy.total_deadline_ms = 30'000;
    cluster::ClusterTier tier_a(engine_a, cluster_options);
    engine_a.setResultBackend(&tier_a);
    // No tier start: B is optimistically up and stays up, which is
    // exactly the steady state under test.

    cluster::ClusterOptions cluster_options_b = cluster_options;
    cluster_options_b.self = node_b;
    tier_b = std::make_unique<cluster::ClusterTier>(engine_b,
                                                    cluster_options_b);
    engine_b.setResultBackend(tier_b.get());

    jobs::JobManagerOptions options;
    options.store_dir = dir_a.path;
    options.shard_workers = 2;
    jobs::JobManager manager(engine_a, options);
    EXPECT_EQ(manager.quarantinedRecords(), 1u);

    const jobs::JobSubmitOutcome submitted = manager.submit(spec);
    ASSERT_EQ(submitted.status, jobs::JobSubmitStatus::kOk);
    const jobs::JobProgress progress =
        awaitTerminal(manager, submitted.id);
    EXPECT_EQ(progress.state, jobs::JobState::kCompleted);
    EXPECT_EQ(progress.shards_done, 6u);
    EXPECT_EQ(progress.shards_failed, 0u);

    // B executed its share remotely; nothing ran twice.
    const cluster::ClusterStats cluster_stats = tier_a.stats();
    EXPECT_GT(cluster_stats.proxied, 0u);
    EXPECT_EQ(cluster_stats.proxy_failures, 0u);
    EXPECT_EQ(manager.stats().shards_proxied, cluster_stats.proxied);
    EXPECT_GT(engine_b.stats().sim_runs, 0u);
    EXPECT_EQ(engine_a.stats().sim_runs + engine_b.stats().sim_runs,
              6u)
        << "every shard must execute exactly once across the cluster";

    manager.shutdown();
    server_b.shutdown();
}

TEST(FaultQuarantine, QuarantineNeverClobbersEarlierQuarantinedFiles)
{
    TempDir dir;
    SimulationEngine engine(EngineOptions{});
    jobs::JobManagerOptions options;
    options.store_dir = dir.path;
    options.shard_workers = 0;

    auto plant = [&](const std::string &content) {
        std::ofstream os(jobs::jobRecordPath(dir.path, 7));
        os << content;
    };
    plant("garbage one");
    { jobs::JobManager manager(engine, options); }
    plant("garbage two");
    { jobs::JobManager manager(engine, options); }

    // Both bad incarnations of job_7 survive side by side.
    EXPECT_EQ(filesIn(dir.path + "/quarantine"), 2u);
}
