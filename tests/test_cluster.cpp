/**
 * @file
 * The peer-tier suite: membership parsing, rendezvous ownership
 * agreement across nodes, the /cluster/simulate proxy protocol
 * (byte-identical results, loop-free), the failure detector's
 * down/recover transitions and the peer-degraded readiness signal,
 * failover on dead or faulted peers, and — the centerpiece — a 3-node
 * loopback chaos test that fork/execs real sipre_served daemons,
 * SIGKILLs one mid-campaign, and proves the campaign completes with
 * every shard executed exactly once and results byte-identical to a
 * solo run, then rejoins the dead node without re-execution.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "core/experiment.hpp"
#include "jobs/sweep.hpp"
#include "service/client.hpp"
#include "service/engine.hpp"
#include "service/http.hpp"
#include "service/server.hpp"
#include "util/fault.hpp"
#include "util/rendezvous.hpp"

using namespace sipre;
using namespace sipre::service;

namespace
{

/** A unique scratch directory, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char name[] = "/tmp/sipre_cluster_test_XXXXXX";
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
postJson(const std::string &target, std::string body)
{
    http::Request request;
    request.method = "POST";
    request.target = target;
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

/** One-shot request against 127.0.0.1:port; EXPECTs transport success. */
http::Response
call(std::uint16_t port, const http::Request &request)
{
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.base_delay_ms = 10;
    const ClientOutcome outcome =
        requestWithRetry("127.0.0.1", port, request, policy);
    EXPECT_TRUE(outcome.ok) << outcome.error;
    return outcome.response;
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

/** First integer following `"field":` in a JSON blob (no nesting). */
std::uint64_t
jsonField(const std::string &json, const std::string &field)
{
    const std::string needle = "\"" + field + "\":";
    const std::size_t pos = json.find(needle);
    EXPECT_NE(pos, std::string::npos) << field << " missing in " << json;
    if (pos == std::string::npos)
        return ~0ull;
    return std::stoull(json.substr(pos + needle.size()));
}

/**
 * Every `"result":{...}` subdocument of a /jobs result body, in
 * order. Byte-comparing these (instead of the whole body) skips the
 * per-run latency_us fields while still proving the simulation
 * outputs are bit-exact.
 */
std::vector<std::string>
extractResultDocs(const std::string &json)
{
    std::vector<std::string> docs;
    std::size_t pos = 0;
    while ((pos = json.find("\"result\":", pos)) != std::string::npos) {
        std::size_t i = pos + 9;
        int depth = 0;
        const std::size_t start = i;
        for (; i < json.size(); ++i) {
            if (json[i] == '{') {
                ++depth;
            } else if (json[i] == '}') {
                if (--depth == 0) {
                    ++i;
                    break;
                }
            }
        }
        docs.push_back(json.substr(start, i - start));
        pos = i;
    }
    return docs;
}

/**
 * Pick an identity string for a node that is never dialed, such that
 * the rendezvous hash gives `want_owner` ownership of the request key
 * — deterministic per run even though real ports are ephemeral.
 */
std::string
pickSelfSoThatOwns(const std::string &key, const std::string &other,
                   bool other_owns)
{
    for (int candidate = 1; candidate <= 256; ++candidate) {
        const std::string name =
            "127.0.0.1:" + std::to_string(candidate);
        if (name == other)
            continue; // a one-member "pair" makes ownership vacuous
        const bool owns =
            rendezvousOwner(key, {name, other}) == other;
        if (owns == other_owns)
            return name;
    }
    ADD_FAILURE() << "no suitable self identity in 256 candidates";
    return "127.0.0.1:1";
}

// ------------------------------------------------- in-process helpers

/** An engine + server + cluster tier trio wired like sipre_served. */
struct Node
{
    std::unique_ptr<SimulationEngine> engine;
    std::unique_ptr<ServiceServer> server;
    std::unique_ptr<cluster::ClusterTier> tier;
    std::string id; ///< "127.0.0.1:<port>"

    explicit Node(EngineOptions engine_options = {})
    {
        engine = std::make_unique<SimulationEngine>(engine_options);
        server = std::make_unique<ServiceServer>(*engine,
                                                 ServerOptions{});
        // The tier is built only once the port is known; the handler
        // and probe forward through the pointer.
        server->addHandler(
            [this](const http::Request &request)
                -> std::optional<http::Response> {
                if (tier == nullptr)
                    return std::nullopt;
                return tier->handle(request);
            });
        server->setReadinessProbe(
            [this]() -> std::optional<std::string> {
                if (tier == nullptr)
                    return std::nullopt;
                return tier->readinessReason();
            });
        std::string error;
        EXPECT_TRUE(server->start(&error)) << error;
        id = "127.0.0.1:" + std::to_string(server->port());
    }

    void
    join(const std::vector<std::string> &members,
         cluster::ClusterOptions options = {})
    {
        options.self = id;
        options.peers = members;
        tier = std::make_unique<cluster::ClusterTier>(*engine, options);
        engine->setResultBackend(tier.get());
    }

    ~Node()
    {
        if (tier)
            tier->shutdown();
        if (server)
            server->shutdown();
    }
};

// --------------------------------------------------- real daemons

/** A fork/exec'd sipre_served with its own log file. */
struct Daemon
{
    pid_t pid = -1;
    std::uint16_t port = 0;

    void
    spawn(std::uint16_t listen_port,
          const std::vector<std::string> &extra_args,
          const std::string &log_path)
    {
        port = listen_port;
        std::vector<std::string> args = {
            SIPRE_SERVED_BINARY, "--port", std::to_string(listen_port)};
        args.insert(args.end(), extra_args.begin(), extra_args.end());

        pid = ::fork();
        ASSERT_NE(pid, -1);
        if (pid == 0) {
            const int log = ::open(log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (log >= 0) {
                ::dup2(log, 1);
                ::dup2(log, 2);
                ::close(log);
            }
            std::vector<char *> argv;
            argv.reserve(args.size() + 1);
            for (std::string &arg : args)
                argv.push_back(arg.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            std::_Exit(127); // exec failed
        }
    }

    /** Poll /healthz until the daemon answers (or fail the test). */
    void
    awaitUp(int timeout_s = 30)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(timeout_s);
        while (std::chrono::steady_clock::now() < deadline) {
            std::string error;
            const int fd = http::dialTcp("127.0.0.1", port, &error);
            if (fd >= 0) {
                http::Response response;
                const bool ok = http::roundTrip(
                    fd, get("/healthz"), response, &error, 2'000);
                ::close(fd);
                if (ok && response.status == 200)
                    return;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(25));
        }
        FAIL() << "daemon on port " << port << " never became healthy";
    }

    void
    kill(int signo)
    {
        if (pid > 0)
            ::kill(pid, signo);
    }

    void
    reap()
    {
        if (pid > 0) {
            int status = 0;
            ::waitpid(pid, &status, 0);
            pid = -1;
        }
    }

    ~Daemon()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            reap();
        }
    }
};

} // namespace

// ----------------------------------------------------- member parsing

TEST(ClusterParse, PeerListAndHostPort)
{
    std::vector<std::string> peers;
    std::string error;
    ASSERT_TRUE(cluster::parsePeerList(
        "127.0.0.1:8101, 127.0.0.1:8102,localhost:9", peers, &error))
        << error;
    ASSERT_EQ(peers.size(), 3u);
    EXPECT_EQ(peers[1], "127.0.0.1:8102");
    EXPECT_EQ(peers[2], "localhost:9");

    for (const char *bad : {"", ",", "127.0.0.1", "host:", ":8101",
                            "host:0", "host:65536", "host:80x",
                            "a:1,,b:2"}) {
        error.clear();
        EXPECT_FALSE(cluster::parsePeerList(bad, peers, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }

    std::string host;
    std::uint16_t port = 0;
    ASSERT_TRUE(cluster::splitHostPort("[::1]-ish.host:65535", host,
                                       port));
    EXPECT_EQ(port, 65535);
    EXPECT_TRUE(cluster::splitHostPort("a:b:1", host, port));
    EXPECT_EQ(host, "a:b"); // last colon wins
    EXPECT_FALSE(cluster::splitHostPort("nocolon", host, port));
}

// ------------------------------------------------- ownership agreement

TEST(ClusterOwnership, AllNodesAgreeAndExactlyOneExecutesLocally)
{
    // Three tiers that never talk: pure hash agreement. Identities are
    // fixed strings, so this is fully deterministic.
    const std::vector<std::string> members = {
        "127.0.0.1:8101", "127.0.0.1:8102", "127.0.0.1:8103"};
    SimulationEngine engine(EngineOptions{});
    std::vector<std::unique_ptr<cluster::ClusterTier>> tiers;
    for (const std::string &self : members) {
        cluster::ClusterOptions options;
        options.self = self;
        options.peers = members;
        tiers.push_back(std::make_unique<cluster::ClusterTier>(
            engine, options));
    }

    int local_totals[3] = {0, 0, 0};
    for (int k = 0; k < 120; ++k) {
        const std::string key = "campaign-key-" + std::to_string(k);
        const std::string owner = tiers[0]->ownerFor(key);
        int locals = 0;
        for (std::size_t n = 0; n < tiers.size(); ++n) {
            EXPECT_EQ(tiers[n]->ownerFor(key), owner);
            if (tiers[n]->localExecution(key)) {
                ++locals;
                ++local_totals[n];
            }
        }
        EXPECT_EQ(locals, 1) << "exactly one owner per key";
    }
    // The hash spreads work: every node owns something.
    for (const int total : local_totals)
        EXPECT_GT(total, 0);
}

// ---------------------------------------------------- the proxy path

TEST(ClusterProxy, NonOwnerProxiesToOwnerOnceAndCachesTheResult)
{
    Node node_b; // the owner; executes
    Node node_a; // the proxier; never simulates this key

    // Choose an ftq depth whose canonical key node B owns.
    std::uint32_t ftq = 0;
    SimRequest probe_request;
    for (std::uint32_t candidate = 4; candidate <= 64;
         candidate += 2) {
        std::string error;
        ASSERT_TRUE(parseSimRequest(
            simulateBody("secret_crypto52", candidate), probe_request,
            error));
        if (rendezvousOwner(probe_request.canonicalKey(),
                            {node_a.id, node_b.id}) == node_b.id) {
            ftq = candidate;
            break;
        }
    }
    ASSERT_NE(ftq, 0u) << "no key owned by B in 31 candidates";

    const std::vector<std::string> members = {node_a.id, node_b.id};
    cluster::ClusterOptions options;
    options.proxy_policy.max_attempts = 2;
    options.proxy_policy.base_delay_ms = 1;
    node_a.join(members, options);
    node_b.join(members, options);

    // Through A's public /simulate: proxied to B, marked as such.
    const http::Response via_a = call(
        node_a.server->port(),
        postJson("/simulate", simulateBody("secret_crypto52", ftq)));
    ASSERT_EQ(via_a.status, 200);
    EXPECT_NE(via_a.body.find("\"proxied\":true"), std::string::npos);
    EXPECT_EQ(node_a.engine->stats().sim_runs, 0u);
    EXPECT_EQ(node_b.engine->stats().sim_runs, 1u);
    EXPECT_EQ(node_a.tier->stats().proxied, 1u);
    EXPECT_EQ(node_b.tier->stats().remote_simulates, 1u);

    // The result document is byte-identical to a solo engine's.
    SimulationEngine solo(EngineOptions{});
    ServiceServer solo_server(solo, ServerOptions{});
    std::string error;
    ASSERT_TRUE(solo_server.start(&error)) << error;
    const http::Response via_solo = call(
        solo_server.port(),
        postJson("/simulate", simulateBody("secret_crypto52", ftq)));
    ASSERT_EQ(via_solo.status, 200);
    const auto cluster_docs = extractResultDocs(via_a.body);
    const auto solo_docs = extractResultDocs(via_solo.body);
    ASSERT_EQ(cluster_docs.size(), 1u);
    ASSERT_EQ(solo_docs.size(), 1u);
    EXPECT_EQ(cluster_docs[0], solo_docs[0]);
    // Single-node responses don't even mention proxying — the field is
    // strictly additive, keeping solo bodies byte-stable.
    EXPECT_EQ(via_solo.body.find("proxied"), std::string::npos);
    solo_server.shutdown();

    // A repeat through A is served from A's own LRU: cached, not
    // re-proxied — the proxy result entered the local cache tiers.
    const http::Response repeat = call(
        node_a.server->port(),
        postJson("/simulate", simulateBody("secret_crypto52", ftq)));
    ASSERT_EQ(repeat.status, 200);
    EXPECT_NE(repeat.body.find("\"cached\":true"), std::string::npos);
    EXPECT_EQ(node_a.tier->stats().proxied, 1u);
    EXPECT_EQ(node_b.engine->stats().sim_runs, 1u);
}

TEST(ClusterProxy, ClusterSimulateEndpointSpeaksTheWireFormat)
{
    Node node;
    node.join({node.id, "127.0.0.1:1"});

    // Wrong method and garbage bodies get structured errors.
    const auto method = node.tier->handle(get("/cluster/simulate"));
    ASSERT_TRUE(method.has_value());
    EXPECT_EQ(method->status, 405);
    const auto garbage =
        node.tier->handle(postJson("/cluster/simulate", "{nope"));
    ASSERT_TRUE(garbage.has_value());
    EXPECT_EQ(garbage->status, 400);

    // A valid request executes locally (allow_proxy=false) and returns
    // the lossless text serialization plus the cache marker.
    const auto cold = node.tier->handle(postJson(
        "/cluster/simulate", simulateBody("secret_crypto52", 4)));
    ASSERT_TRUE(cold.has_value());
    ASSERT_EQ(cold->status, 200);
    ASSERT_NE(cold->header("X-Sipre-Cached"), nullptr);
    EXPECT_EQ(*cold->header("X-Sipre-Cached"), "0");
    std::istringstream is(cold->body);
    SimResult wire_result;
    ASSERT_TRUE(readSimResultText(is, wire_result));

    // Byte-identical to the direct engine path.
    SimulationEngine solo(EngineOptions{});
    SimRequest request;
    std::string error;
    ASSERT_TRUE(parseSimRequest(simulateBody("secret_crypto52", 4),
                                request, error));
    const SubmitOutcome direct = solo.submit(request);
    ASSERT_EQ(direct.status, SubmitStatus::kOk);
    std::ostringstream direct_text;
    writeSimResultText(direct_text, *direct.result);
    EXPECT_EQ(cold->body, direct_text.str());

    // The repeat is a cache hit and says so in the header.
    const auto warm = node.tier->handle(postJson(
        "/cluster/simulate", simulateBody("secret_crypto52", 4)));
    ASSERT_TRUE(warm.has_value());
    ASSERT_EQ(warm->status, 200);
    ASSERT_NE(warm->header("X-Sipre-Cached"), nullptr);
    EXPECT_EQ(*warm->header("X-Sipre-Cached"), "1");
    EXPECT_EQ(warm->body, cold->body);
}

// ------------------------------------------------- failure detection

TEST(ClusterDetector, MarksDeadPeerDownDegradesReadinessAndRecovers)
{
    Node node_a;
    auto node_b = std::make_unique<Node>();
    const std::string b_id = node_b->id;
    const std::uint16_t b_port = node_b->server->port();

    cluster::ClusterOptions options;
    options.probe_interval_ms = 40;
    options.probe_timeout_ms = 500;
    options.down_after = 2;
    options.up_after = 2;
    node_a.join({node_a.id, b_id}, options);
    node_a.tier->start();

    // B answers /readyz, so it stays up and A is fully ready.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(node_a.tier->stats().peers_up, 1u);
    EXPECT_EQ(call(node_a.server->port(), get("/readyz")).status, 200);

    // Kill B: after down_after consecutive failures A marks it down
    // and reports itself degraded-but-live.
    node_b.reset();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    while (node_a.tier->stats().peers_up != 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(node_a.tier->stats().peers_up, 0u);
    const http::Response degraded =
        call(node_a.server->port(), get("/readyz"));
    EXPECT_EQ(degraded.status, 503);
    EXPECT_NE(degraded.body.find("\"reason\":\"peer-degraded\""),
              std::string::npos);
    EXPECT_EQ(call(node_a.server->port(), get("/healthz")).status, 200);

    // While B is down, A owns everything.
    for (int k = 0; k < 20; ++k)
        EXPECT_TRUE(
            node_a.tier->localExecution("key-" + std::to_string(k)));

    // Resurrect a listener on B's port: up_after successes later the
    // peer re-enters the ring and readiness clears.
    SimulationEngine engine_b2(EngineOptions{});
    ServerOptions b2_options;
    b2_options.port = b_port;
    ServiceServer server_b2(engine_b2, b2_options);
    std::string error;
    ASSERT_TRUE(server_b2.start(&error)) << error;
    const auto recover_deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(20);
    while (node_a.tier->stats().peers_up != 1 &&
           std::chrono::steady_clock::now() < recover_deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(node_a.tier->stats().peers_up, 1u);
    EXPECT_EQ(call(node_a.server->port(), get("/readyz")).status, 200);
    const cluster::ClusterStats stats = node_a.tier->stats();
    ASSERT_EQ(stats.peer_states.size(), 1u);
    EXPECT_EQ(stats.peer_states[0].transitions, 2u) << "down then up";
    server_b2.shutdown();
    node_a.tier->shutdown();
}

TEST(ClusterDetector, DrainingPeerLeavesTheRingBeforeItsListenerDies)
{
    Node node_a;
    Node node_b;
    cluster::ClusterOptions options;
    options.probe_interval_ms = 40;
    options.down_after = 2;
    node_a.join({node_a.id, node_b.id}, options);
    node_a.tier->start();

    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ASSERT_EQ(node_a.tier->stats().peers_up, 1u);

    // B starts draining: its /readyz flips to 503 "draining" while the
    // listener still serves. A must route around it promptly.
    node_b.server->beginDrain();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    while (node_a.tier->stats().peers_up != 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(node_a.tier->stats().peers_up, 0u);
    node_a.tier->shutdown();
}

// ------------------------------------------------------- failover

TEST(ClusterFailover, DeadOwnerFallsBackToLocalExecution)
{
    // B is a member that never existed as a listener: a port from the
    // reserved range nothing binds in this suite.
    SimulationEngine engine(EngineOptions{});
    SimRequest request;
    std::string error;
    ASSERT_TRUE(parseSimRequest(simulateBody("secret_crypto52", 4),
                                request, error));
    const std::string dead = pickSelfSoThatOwns(
        request.canonicalKey(), "127.0.0.1:9", false);
    // Self is chosen so the *other* member (dead) owns the key.
    const std::string self = pickSelfSoThatOwns(
        request.canonicalKey(), dead, true);

    cluster::ClusterOptions options;
    options.self = self;
    options.peers = {self, dead};
    options.proxy_policy.max_attempts = 2;
    options.proxy_policy.base_delay_ms = 1;
    options.proxy_policy.request_timeout_ms = 1'000;
    options.proxy_policy.total_deadline_ms = 3'000;
    cluster::ClusterTier tier(engine, options);
    engine.setResultBackend(&tier);

    ASSERT_FALSE(tier.localExecution(request.canonicalKey()))
        << "the dead node must own this key for the test to bite";

    // The submit still succeeds: the proxy hop fails (connection
    // refused), resolve() exhausts the remote candidates, and the
    // engine runs the simulation locally.
    const SubmitOutcome outcome = engine.submit(request);
    ASSERT_EQ(outcome.status, SubmitStatus::kOk);
    ASSERT_NE(outcome.result, nullptr);
    EXPECT_FALSE(outcome.proxied);
    EXPECT_EQ(engine.stats().sim_runs, 1u);
    const cluster::ClusterStats stats = tier.stats();
    EXPECT_EQ(stats.proxied, 0u);
    EXPECT_GE(stats.proxy_failures, 1u);
    EXPECT_GE(stats.failovers, 1u);
}

TEST(ClusterFailover, PeerFaultSiteSkipsTheHopDeterministically)
{
    // Same topology, but the hop is cut by the injector instead of a
    // dead socket — the chaos grammar's "peer" site.
    SimulationEngine engine(EngineOptions{});
    SimRequest request;
    std::string error;
    ASSERT_TRUE(parseSimRequest(simulateBody("secret_crypto52", 6),
                                request, error));
    const std::string other = pickSelfSoThatOwns(
        request.canonicalKey(), "127.0.0.1:9", false);
    const std::string self =
        pickSelfSoThatOwns(request.canonicalKey(), other, true);

    cluster::ClusterOptions options;
    options.self = self;
    options.peers = {self, other};
    cluster::ClusterTier tier(engine, options);
    engine.setResultBackend(&tier);

    std::string fault_error;
    ASSERT_TRUE(fault::Injector::global().configure(
        "peer:fail=after:0", &fault_error))
        << fault_error;
    const SubmitOutcome outcome = engine.submit(request);
    fault::Injector::global().configure("");

    ASSERT_EQ(outcome.status, SubmitStatus::kOk);
    EXPECT_FALSE(outcome.proxied);
    EXPECT_EQ(engine.stats().sim_runs, 1u);
    // The injected cut is visible in the tier's own accounting — and
    // no socket was ever dialed (the fault fires before proxyTo).
    const cluster::ClusterStats stats = tier.stats();
    EXPECT_GE(stats.proxy_failures, 1u);
    EXPECT_GE(stats.failovers, 1u);
}

// A fresh request whose first-choice owner the detector has marked down
// runs here without a hop; it still re-routed off its owner, so it
// counts once as a failover (and its cached repeat does not).
TEST(ClusterFailover, LocalRunOffADownOwnerCountsAsAFailover)
{
    SimulationEngine engine(EngineOptions{});
    SimRequest request;
    std::string error;
    ASSERT_TRUE(parseSimRequest(simulateBody("secret_crypto52", 8),
                                request, error));
    const std::string dead = pickSelfSoThatOwns(
        request.canonicalKey(), "127.0.0.1:9", false);
    const std::string self =
        pickSelfSoThatOwns(request.canonicalKey(), dead, true);

    cluster::ClusterOptions options;
    options.self = self;
    options.peers = {self, dead};
    options.probe_interval_ms = 20;
    options.down_after = 1;
    cluster::ClusterTier tier(engine, options);
    engine.setResultBackend(&tier);
    ASSERT_EQ(tier.ownerFor(request.canonicalKey()), dead);
    tier.start();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (tier.stats().peers_up != 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(tier.stats().peers_up, 0u);
    ASSERT_EQ(tier.ownerFor(request.canonicalKey()), self);

    ASSERT_EQ(engine.submit(request).status, SubmitStatus::kOk);
    EXPECT_EQ(tier.stats().failovers, 1u);
    EXPECT_EQ(tier.stats().proxy_failures, 0u);
    EXPECT_TRUE(engine.submit(request).cache_hit);
    EXPECT_EQ(tier.stats().failovers, 1u);
    EXPECT_EQ(engine.stats().sim_runs, 1u);
    tier.shutdown();
}

// ------------------------------------------- 3-node loopback chaos

TEST(ClusterChaos, SigkillMidCampaignCompletesExactlyOnceByteIdentical)
{
    TempDir scratch;

    // The sweep: 8 distinct shards. Expanded here too, so the port
    // base below can be chosen such that the victim node provably owns
    // at least one shard — otherwise killing it would prove nothing.
    const std::string spec =
        R"({"workloads":["secret_crypto52"],"instructions":20000,)"
        R"("ftq":[4,6,8,10,12,14,16,18]})";
    jobs::SweepSpec sweep;
    std::string spec_error;
    ASSERT_TRUE(jobs::parseSweepSpec(spec, sweep, spec_error))
        << spec_error;
    const std::vector<SimRequest> shards = jobs::expandSweep(sweep);
    ASSERT_EQ(shards.size(), 8u);

    // Fixed ports stay below Linux's default ephemeral range (32768 and
    // up), where a concurrently running test's port-0 listener or
    // client socket can already hold a port and keep a daemon down.
    std::uint16_t base = 0;
    for (std::uint16_t candidate = static_cast<std::uint16_t>(
             18'000 + (::getpid() * 7) % 12'000);
         base == 0; candidate += 4) {
        const std::vector<std::string> names = {
            "127.0.0.1:" + std::to_string(candidate),
            "127.0.0.1:" + std::to_string(candidate + 1),
            "127.0.0.1:" + std::to_string(candidate + 2)};
        std::size_t owned_by_b = 0;
        for (const SimRequest &shard : shards)
            owned_by_b += rendezvousOwner(shard.canonicalKey(),
                                          names) == names[1];
        if (owned_by_b > 0 && owned_by_b < shards.size())
            base = candidate;
    }
    const std::string node_a = "127.0.0.1:" + std::to_string(base);
    const std::string node_b =
        "127.0.0.1:" + std::to_string(base + 1);
    const std::string node_c =
        "127.0.0.1:" + std::to_string(base + 2);
    const std::string members =
        node_a + "," + node_b + "," + node_c;

    auto spawnMember = [&](Daemon &daemon, std::uint16_t port,
                           const std::string &self,
                           const std::string &jobs_dir,
                           const std::vector<std::string> &extra) {
        std::vector<std::string> args = {
            "--workers", "2",          "--job-workers", "2",
            "--jobs-dir", jobs_dir,    "--cluster-peers", members,
            "--cluster-self", self,    "--cluster-probe-interval-ms",
            "100",                     "--cluster-down-after", "2",
            "--cluster-up-after", "2",
        };
        args.insert(args.end(), extra.begin(), extra.end());
        daemon.spawn(port, args,
                     scratch.path + "/daemon_" + std::to_string(port) +
                         ".log");
    };

    Daemon a, b, c;
    // Every locally executed simulation sleeps 150 ms, so the campaign
    // is long enough to kill a node in the middle of it.
    spawnMember(a, base, node_a, scratch.path + "/jobs_a",
                {"--faults", "engine:delay=150"});
    // B can never execute work: a zero-capacity queue turns every
    // local submit into instant 429 backpressure. Its share of the
    // campaign must therefore fail over — and the exactly-once count
    // below stays exact because B provably completed nothing.
    spawnMember(b, base + 1, node_b, scratch.path + "/jobs_b",
                {"--queue", "0", "--faults", "engine:delay=150"});
    spawnMember(c, base + 2, node_c, scratch.path + "/jobs_c",
                {"--faults", "engine:delay=150"});
    a.awaitUp();
    b.awaitUp();
    c.awaitUp();

    const http::Response submitted =
        call(a.port, postJson("/jobs", spec));
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    const std::uint64_t job_id = jsonField(submitted.body, "id");
    ASSERT_EQ(jsonField(submitted.body, "shards"), 8u);

    // Wait for the campaign to be genuinely mid-flight, then SIGKILL B
    // — no drain, no goodbye, the hardest exit there is.
    const auto start_deadline = std::chrono::steady_clock::now() +
                                std::chrono::seconds(60);
    for (;;) {
        ASSERT_LT(std::chrono::steady_clock::now(), start_deadline)
            << "campaign never started";
        const http::Response progress =
            call(a.port, get("/jobs/" + std::to_string(job_id)));
        if (progress.status == 200 &&
            jsonField(progress.body, "shards_done") >= 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    b.kill(SIGKILL);
    b.reap();

    // The campaign must complete anyway: every shard done, none failed.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(120);
    for (;;) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "campaign did not survive the node loss";
        const http::Response progress =
            call(a.port, get("/jobs/" + std::to_string(job_id)));
        ASSERT_EQ(progress.status, 200);
        if (progress.body.find("\"state\":\"completed\"") !=
            std::string::npos) {
            EXPECT_EQ(jsonField(progress.body, "shards_done"), 8u);
            EXPECT_EQ(jsonField(progress.body, "shards_failed"), 0u);
            break;
        }
        ASSERT_EQ(progress.body.find("\"state\":\"failed\""),
                  std::string::npos)
            << progress.body;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    // Exactly once: the survivors' simulation counts add up to the
    // shard count. B completed nothing (zero queue capacity), so
    // 8 = sims(A) + sims(C) proves no shard ran twice anywhere.
    const http::Response metrics_a = call(a.port, get("/metrics"));
    const http::Response metrics_c = call(c.port, get("/metrics"));
    ASSERT_EQ(metrics_a.status, 200);
    ASSERT_EQ(metrics_c.status, 200);
    const std::uint64_t sims_a =
        metricValue(metrics_a.body, "sipre_sim_runs_total");
    const std::uint64_t sims_c =
        metricValue(metrics_c.body, "sipre_sim_runs_total");
    EXPECT_EQ(sims_a + sims_c, 8u)
        << "A ran " << sims_a << ", C ran " << sims_c;
    EXPECT_GT(metricValue(metrics_a.body,
                          "sipre_cluster_failovers_total"),
              0u)
        << "the kill must have forced at least one failover";

    // Byte-identical to a solo run: the same sweep on a fresh
    // single-node daemon produces the same result documents.
    Daemon solo;
    solo.spawn(static_cast<std::uint16_t>(base + 3),
               {"--workers", "2", "--job-workers", "2", "--jobs-dir",
                scratch.path + "/jobs_solo"},
               scratch.path + "/daemon_solo.log");
    solo.awaitUp();
    const http::Response solo_submit =
        call(solo.port, postJson("/jobs", spec));
    ASSERT_EQ(solo_submit.status, 202);
    const std::uint64_t solo_id = jsonField(solo_submit.body, "id");
    const auto solo_deadline = std::chrono::steady_clock::now() +
                               std::chrono::seconds(120);
    for (;;) {
        ASSERT_LT(std::chrono::steady_clock::now(), solo_deadline);
        const http::Response progress = call(
            solo.port, get("/jobs/" + std::to_string(solo_id)));
        if (progress.body.find("\"state\":\"completed\"") !=
            std::string::npos)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const http::Response cluster_result = call(
        a.port, get("/jobs/" + std::to_string(job_id) + "/result"));
    const http::Response solo_result = call(
        solo.port,
        get("/jobs/" + std::to_string(solo_id) + "/result"));
    ASSERT_EQ(cluster_result.status, 200);
    ASSERT_EQ(solo_result.status, 200);
    const auto cluster_docs = extractResultDocs(cluster_result.body);
    const auto solo_docs = extractResultDocs(solo_result.body);
    ASSERT_EQ(cluster_docs.size(), 8u);
    ASSERT_EQ(solo_docs.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(cluster_docs[i], solo_docs[i]) << "shard " << i;

    // Rejoin: a fresh B on the same identity re-enters the ring, and
    // resubmitting the sweep re-executes nothing — every shard is
    // served from A's result cache.
    spawnMember(b, base + 1, node_b,
                scratch.path + "/jobs_b_rejoined",
                {"--queue", "0"});
    b.awaitUp();
    const auto rejoin_deadline = std::chrono::steady_clock::now() +
                                 std::chrono::seconds(30);
    for (;;) {
        ASSERT_LT(std::chrono::steady_clock::now(), rejoin_deadline)
            << "B never rejoined";
        const http::Response status =
            call(a.port, get("/cluster/status"));
        if (status.status == 200 &&
            jsonField(status.body, "peers_up") == 2)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const http::Response resubmit = call(a.port, postJson("/jobs", spec));
    ASSERT_EQ(resubmit.status, 202);
    const std::uint64_t rejoin_id = jsonField(resubmit.body, "id");
    const auto rerun_deadline = std::chrono::steady_clock::now() +
                                std::chrono::seconds(60);
    for (;;) {
        ASSERT_LT(std::chrono::steady_clock::now(), rerun_deadline);
        const http::Response progress = call(
            a.port, get("/jobs/" + std::to_string(rejoin_id)));
        if (progress.body.find("\"state\":\"completed\"") !=
            std::string::npos) {
            EXPECT_EQ(jsonField(progress.body, "shards_cached"), 8u)
                << "the rerun must be answered from cache";
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const http::Response metrics_after = call(a.port, get("/metrics"));
    EXPECT_EQ(metricValue(metrics_after.body, "sipre_sim_runs_total"),
              sims_a)
        << "rejoin + resubmit must not re-simulate anything";
    const http::Response metrics_c_after =
        call(c.port, get("/metrics"));
    EXPECT_EQ(
        metricValue(metrics_c_after.body, "sipre_sim_runs_total"),
        sims_c);

    // Graceful teardown (SIGTERM drains); the Daemon destructor
    // SIGKILLs stragglers.
    a.kill(SIGTERM);
    c.kill(SIGTERM);
    b.kill(SIGTERM);
    solo.kill(SIGTERM);
    a.reap();
    c.reap();
    b.reap();
    solo.reap();
}
