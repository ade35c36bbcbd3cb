/**
 * @file
 * Workload `serve_hot`: a closed loop of POST /simulate over loopback
 * HTTP against an in-process SimulationEngine + ServiceServer.
 *
 * Closed loop: each client thread sends its next request only after
 * the previous reply, so the load is set by the client count, not a
 * rate. Clients hold two keep-alive connections each and at most
 * min(4, nproc) connections in total. The seeded per-client request
 * stream is mostly repeats of a warmed hot key set (LRU hits), plus a
 * fixed share of fresh short-trace keys (cold simulations, LRU inserts
 * and evictions) and a fixed share of fresh keys sent on both
 * connections at once (concurrent duplicates, which coalesce).
 *
 * The hot set's size and trace length follow bench_service_throughput
 * (8 keys of 30k instructions); the fresh and duplicate shares are
 * chosen, since the repository holds no measured request traffic.
 */
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <malloc.h>
#include <unistd.h>

#include "bench.hpp"
#include "core/json_io.hpp"
#include "service/engine.hpp"
#include "service/http.hpp"
#include "service/request.hpp"
#include "service/server.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace perfbench
{

namespace
{

using namespace sipre::service;

constexpr std::uint64_t kFreshInstructions = 2'000;
constexpr unsigned kFreshPerMille = 20; ///< cold single requests
constexpr unsigned kDupPerMille = 10;   ///< cold concurrent pairs
constexpr unsigned kEngineWorkers = 2;
constexpr std::size_t kCacheCapacity = 64;
constexpr int kIoTimeoutMs = 30'000;

std::string
simulateBody(const std::string &workload, std::uint64_t instructions,
             std::uint32_t ftq)
{
    return "{\"workload\":\"" + workload +
           "\",\"instructions\":" + std::to_string(instructions) +
           ",\"ftq\":" + std::to_string(ftq) + "}";
}

/** The FTQ depth of the closed loop's first thousand fresh keys. */
constexpr std::uint32_t kFreshFtq = 8;

/**
 * A fresh key that no other request of the run shares: `unique`
 * spreads over the trace length (1000 values) and then the FTQ depth,
 * so the cost of a fresh simulation stays in a narrow band.
 */
std::string
freshBody(const std::string &workload, std::uint64_t unique)
{
    return simulateBody(workload, kFreshInstructions + unique % 1000,
                        static_cast<std::uint32_t>(kFreshFtq + unique / 1000));
}

/** What a 200 body says, split into its per-request envelope and the
 *  part that must be byte-identical for every reply to one key. */
struct Reply
{
    std::string key;
    std::string stable; ///< from ,"request": to the end
    std::string result; ///< the "result" document
    bool cached = false;
    double engine_us = 0.0;
};

bool
splitReply(const std::string &body, Reply &out)
{
    const std::string key_tag = "\"key\":\"";
    const std::size_t k = body.find(key_tag);
    const std::size_t k_end = body.find("\",\"cached\":", k);
    const std::size_t lat = body.find(",\"latency_us\":");
    const std::size_t req = body.find(",\"request\":");
    const std::string result_tag = ",\"result\":";
    const std::size_t res = body.find(result_tag, req);
    if (k == std::string::npos || k_end == std::string::npos ||
        lat == std::string::npos || req == std::string::npos ||
        res == std::string::npos || body.back() != '}')
        return false;
    out.key = body.substr(k + key_tag.size(), k_end - k - key_tag.size());
    out.cached = body.compare(k_end + 11, 4, "true") == 0;
    out.engine_us = std::strtod(body.c_str() + lat + 14, nullptr);
    out.stable = body.substr(req);
    out.result = body.substr(res + result_tag.size(),
                             body.size() - 1 - res - result_tag.size());
    return true;
}

bool
sendRequest(int fd, const std::string &body)
{
    http::Request request;
    request.method = "POST";
    request.target = "/simulate";
    request.body = body;
    return http::sendAll(fd, http::serializeRequest(request), kIoTimeoutMs);
}

bool
readResponse(int fd, std::string &buffer, http::Response &response)
{
    for (;;) {
        std::size_t consumed = 0;
        std::string error;
        const http::ParseStatus status =
            http::parseResponse(buffer, response, consumed, error);
        if (status == http::ParseStatus::kOk) {
            buffer.erase(0, consumed);
            return true;
        }
        if (status == http::ParseStatus::kBad)
            return false;
        if (http::recvSome(fd, buffer, kIoTimeoutMs) != http::IoStatus::kOk)
            return false;
    }
}

/** The server under test plus the client connections' geometry. */
struct Service
{
    unsigned connections = 1;
    unsigned clients = 1;
    std::unique_ptr<SimulationEngine> engine;
    std::unique_ptr<ServiceServer> server;

    explicit Service(unsigned nproc)
    {
        connections = std::max(1u, std::min(nproc, 4u));
        clients = std::max(1u, connections / 2);
        EngineOptions engine_options;
        engine_options.workers = std::min(kEngineWorkers, nproc);
        engine_options.queue_capacity = 64;
        engine_options.cache_capacity = kCacheCapacity;
        engine = std::make_unique<SimulationEngine>(engine_options);
        ServerOptions server_options;
        server_options.connection_threads = connections;
        server = std::make_unique<ServiceServer>(*engine, server_options);
        std::string error;
        if (!server->start(&error))
            throw std::runtime_error("server start: " + error);
    }

    ~Service() { server->shutdown(); }

    std::vector<int>
    dial(unsigned count) const
    {
        std::vector<int> fds;
        for (unsigned i = 0; i < count; ++i) {
            std::string error;
            const int fd = http::dialTcp("127.0.0.1", server->port(), &error);
            if (fd < 0)
                throw std::runtime_error("dial: " + error);
            fds.push_back(fd);
        }
        return fds;
    }
};

/** Replies are binned into one-second slices of the phase by the time
 *  they arrived; rates and latencies are each slice's, and the run
 *  reports their medians, so a host stall shorter than half the run
 *  does not move them. */
constexpr double kSliceSeconds = 1.0;

struct PhaseResult
{
    std::vector<double> latency_ms;
    std::vector<double> done_s;        ///< arrival of each latency_ms sample
    std::vector<double> fresh_done_s;  ///< arrival of each fresh reply
    std::vector<double> fresh_instructions; ///< ... and its trace length
    std::vector<double> http_us; ///< hits: round trip minus engine time
};

/** Medians over the phase's whole slices. */
struct SliceFigures
{
    double rps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double fresh_mips = 0.0;
};

SliceFigures
sliceFigures(const PhaseResult &phase, double seconds)
{
    const std::size_t slices = std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds / kSliceSeconds));
    const double width = seconds / static_cast<double>(slices);
    std::vector<std::vector<double>> latency(slices);
    std::vector<double> instructions(slices, 0.0);
    for (std::size_t i = 0; i < phase.done_s.size(); ++i) {
        const auto s = static_cast<std::size_t>(phase.done_s[i] / width);
        if (s < slices)
            latency[s].push_back(phase.latency_ms[i]);
    }
    for (std::size_t i = 0; i < phase.fresh_done_s.size(); ++i) {
        const auto s = static_cast<std::size_t>(phase.fresh_done_s[i] / width);
        if (s < slices)
            instructions[s] += phase.fresh_instructions[i];
    }
    std::vector<double> rps, p50, p99, mips;
    for (std::size_t s = 0; s < slices; ++s) {
        rps.push_back(static_cast<double>(latency[s].size()) / width);
        p50.push_back(quantile(latency[s], 0.50));
        p99.push_back(quantile(latency[s], 0.99));
        mips.push_back(instructions[s] / width / 1e6);
    }
    return {median(rps), median(p50), median(p99), median(mips)};
}

/** One client's closed loop; `hot_stable` is read-only here. */
struct Client
{
    unsigned index = 0;
    sipre::Rng rng;
    std::uint64_t fresh_count = 0;
    std::uint64_t request_id = 0;
    std::vector<int> fds;
    std::vector<std::string> buffers;
    std::map<std::string, std::string> fresh_stable;

    Client(unsigned i, std::uint64_t seed, std::vector<int> conns)
        : index(i), rng(seed * 0x10001ULL + i + 1), fds(std::move(conns)),
          buffers(fds.size())
    {
    }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    ~Client()
    {
        for (const int fd : fds)
            ::close(fd);
    }
};

void
runClient(Client &client, unsigned clients,
          const std::vector<std::string> &hot_bodies,
          const std::map<std::string, std::string> &hot_stable,
          const std::vector<sipre::synth::WorkloadSpec> &suite,
          Clock::time_point start, Clock::time_point deadline,
          PhaseResult &result, Outcome &outcome)
{
    const auto check = [&](const http::Response &response, bool hot,
                           double rtt_ms, std::uint64_t instructions) {
        ++outcome.attempted;
        if (response.status != 200) {
            outcome.fail("serve_hot: HTTP " +
                         std::to_string(response.status) + ": " +
                         response.body.substr(0, 200));
            return;
        }
        Reply reply;
        if (!splitReply(response.body, reply)) {
            outcome.fail("serve_hot: unparseable 200 body");
            return;
        }
        const std::string *first = nullptr;
        if (hot) {
            const auto it = hot_stable.find(reply.key);
            first = it == hot_stable.end() ? nullptr : &it->second;
        } else {
            const auto [it, inserted] =
                client.fresh_stable.emplace(reply.key, reply.stable);
            first = &it->second;
        }
        if (first == nullptr || *first != reply.stable) {
            outcome.fail("serve_hot: body for " + reply.key +
                         " differs from the first body for that key");
            return;
        }
        const double done_s = secondsSince(start);
        result.latency_ms.push_back(rtt_ms);
        result.done_s.push_back(done_s);
        if (!hot) {
            result.fresh_done_s.push_back(done_s);
            result.fresh_instructions.push_back(
                static_cast<double>(instructions));
        }
        if (reply.cached && recording())
            result.http_us.push_back(rtt_ms * 1000.0 - reply.engine_us);
    };

    http::Response response;
    while (Clock::now() < deadline) {
        const std::uint64_t draw = client.rng.below(1000);
        const std::uint64_t request = ++client.request_id * 64 + client.index;
        if (draw >= kFreshPerMille + kDupPerMille) {
            const std::string &body =
                hot_bodies[client.rng.below(hot_bodies.size())];
            Timer timer("http.request", request);
            if (!sendRequest(client.fds[0], body) ||
                !readResponse(client.fds[0], client.buffers[0], response))
                throw std::runtime_error("serve_hot: connection lost");
            check(response, true, timer.stop(), 0);
            continue;
        }
        const std::string &workload =
            suite[client.rng.below(suite.size())].name;
        const std::uint64_t unique =
            client.fresh_count++ * clients + client.index;
        const std::string body = freshBody(workload, unique);
        const bool pair = draw >= kFreshPerMille && client.fds.size() > 1;
        Timer timer("http.request", request);
        const Clock::time_point sent = Clock::now();
        if (!sendRequest(client.fds[0], body) ||
            (pair && !sendRequest(client.fds[1], body)))
            throw std::runtime_error("serve_hot: connection lost");
        for (std::size_t c = 0; c < (pair ? 2u : 1u); ++c) {
            if (!readResponse(client.fds[c], client.buffers[c], response))
                throw std::runtime_error("serve_hot: connection lost");
            check(response, false, msBetween(sent, Clock::now()),
                  c == 0 ? kFreshInstructions + unique % 1000 : 0);
        }
    }
}

PhaseResult
runPhase(std::vector<std::unique_ptr<Client>> &clients,
         const std::vector<std::string> &hot_bodies,
         const std::map<std::string, std::string> &hot_stable,
         const std::vector<sipre::synth::WorkloadSpec> &suite,
         double seconds, Outcome &outcome)
{
    std::vector<PhaseResult> parts(clients.size());
    std::vector<Outcome> outcomes(clients.size());
    std::vector<std::string> errors(clients.size());
    const Clock::time_point start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> pool;
    for (std::size_t i = 0; i < clients.size(); ++i) {
        pool.emplace_back([&, i] {
            try {
                runClient(*clients[i],
                          static_cast<unsigned>(clients.size()), hot_bodies,
                          hot_stable, suite, start, deadline, parts[i],
                          outcomes[i]);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        });
    }
    for (auto &thread : pool)
        thread.join();
    PhaseResult total;
    for (std::size_t i = 0; i < clients.size(); ++i) {
        if (!errors[i].empty())
            throw std::runtime_error(errors[i]);
        outcome.absorb(outcomes[i]);
        const auto append = [](std::vector<double> &to,
                               const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(total.latency_ms, parts[i].latency_ms);
        append(total.done_s, parts[i].done_s);
        append(total.fresh_done_s, parts[i].fresh_done_s);
        append(total.fresh_instructions, parts[i].fresh_instructions);
        append(total.http_us, parts[i].http_us);
    }
    return total;
}

/** One key of the hot set. */
struct HotKey
{
    std::string workload;
    std::uint32_t ftq = 0;
};

/** Everything the workload sets up before it sends a request. */
struct Setup
{
    std::vector<sipre::synth::WorkloadSpec> suite;
    std::vector<HotKey> hot_keys;
    std::unique_ptr<Service> service;
    std::vector<std::unique_ptr<Client>> clients; ///< closed before service
    std::vector<std::string> hot_bodies; ///< one per hot key
    /// The first reply to each hot key: every later reply must match it.
    std::map<std::string, std::string> hot_stable;
    /// The "result" document of each hot key's first reply.
    std::vector<std::string> hot_results;
};

/**
 * The suite build, engine construction, server start, the client
 * connections, and priming the hot set: a server is set up once it
 * serves the hot keys from its cache. Priming sends one request per
 * connection at a time, so the engine's workers run side by side and
 * the simulations, not a thread wake-up, set the time.
 */
std::unique_ptr<Setup>
makeSetup(const Options &options)
{
    auto setup = std::make_unique<Setup>();
    setup->suite = sipre::synth::cvp1LikeSuite();
    setup->service = std::make_unique<Service>(options.nproc);
    const Service &service = *setup->service;
    for (unsigned c = 0; c < service.clients; ++c)
        setup->clients.push_back(std::make_unique<Client>(
            c, options.seed,
            service.dial(service.connections / service.clients)));

    for (const auto &spec : stratifiedSubset(options.seed, kHotWorkloads)) {
        for (const std::uint32_t ftq : kHotFtq) {
            setup->hot_keys.push_back({spec.name, ftq});
            setup->hot_bodies.push_back(
                simulateBody(spec.name, kHotInstructions, ftq));
        }
    }
    setup->hot_results.resize(setup->hot_bodies.size());
    std::vector<std::pair<int, std::string *>> conns;
    for (const auto &client : setup->clients) {
        for (std::size_t c = 0; c < client->fds.size(); ++c)
            conns.emplace_back(client->fds[c], &client->buffers[c]);
    }
    const std::vector<std::string> &bodies = setup->hot_bodies;
    http::Response response;
    for (std::size_t next = 0; next < bodies.size(); next += conns.size()) {
        const std::size_t n = std::min(conns.size(), bodies.size() - next);
        for (std::size_t i = 0; i < n; ++i) {
            if (!sendRequest(conns[i].first, bodies[next + i]))
                throw std::runtime_error("serve_hot: priming failed");
        }
        for (std::size_t i = 0; i < n; ++i) {
            Reply reply;
            if (!readResponse(conns[i].first, *conns[i].second, response) ||
                response.status != 200 || !splitReply(response.body, reply))
                throw std::runtime_error("serve_hot: priming failed");
            setup->hot_stable[reply.key] = reply.stable;
            setup->hot_results[next + i] = reply.result;
        }
    }
    return setup;
}

} // namespace

Outcome
runServeHot(const Options &options)
{
    Outcome out;

    std::unique_ptr<Setup> env;
    // Each tear-down hands the freed heap back, so peak RSS is one
    // server's footprint rather than what eleven set-ups left in the
    // allocator's arenas.
    const double setup_s = medianSetupSeconds(
        [&] { env = makeSetup(options); },
        [&] {
            env.reset();
            ::malloc_trim(0);
        });
    env = makeSetup(options);
    const Service &service = *env->service;

    // Every later reply to a hot key must repeat its first, so checking
    // the first against the reference checks them all.
    DigestTable digests;
    std::string error;
    if (!digests.load(options.digests_path, error))
        throw std::runtime_error(error);
    for (std::size_t i = 0; i < env->hot_keys.size(); ++i) {
        const HotKey &key = env->hot_keys[i];
        ++out.attempted;
        const std::uint64_t want =
            digests.find("serve", key.workload, serveConfigName(key.ftq));
        if (want == 0 || textDigest(env->hot_results[i]) != want)
            out.fail("serve_hot: result for " + key.workload + " ftq " +
                     std::to_string(key.ftq) +
                     " differs from the runSimRequest digest");
    }
    const std::vector<sipre::synth::WorkloadSpec> &suite = env->suite;
    std::vector<std::unique_ptr<Client>> &clients = env->clients;

    std::cout << "{\"notes\":{\"workload\":\"serve_hot\",\"loop\":\"closed\""
              << ",\"client_threads\":" << service.clients
              << ",\"connections\":" << service.connections
              << ",\"server_connection_threads\":" << service.connections
              << ",\"engine_workers\":"
              << std::min(kEngineWorkers, options.nproc)
              << ",\"nproc\":" << options.nproc
              << ",\"hot_keys\":" << env->hot_keys.size()
              << ",\"fresh_per_mille\":" << kFreshPerMille
              << ",\"dup_pairs_per_mille\":" << kDupPerMille << "}}\n";

    const std::vector<std::string> &hot_bodies = env->hot_bodies;
    const std::map<std::string, std::string> &hot_stable = env->hot_stable;

    // Warm-up, checked but not timed.
    runPhase(clients, hot_bodies, hot_stable, suite, kWarmupSeconds, out);
    if (!options.trace) {
        const PhaseResult phase =
            runPhase(clients, hot_bodies, hot_stable, suite,
                     options.seconds, out);
        const Latency latency = summarize(phase.latency_ms);
        std::cerr << "[serve_hot] " << latency.samples << " replies; p"
                  << latency.tail_q * 100 << " " << latency.tail
                  << " ms has >=10 samples beyond it\n";
        const SliceFigures slices = sliceFigures(phase, options.seconds);
        out.add("setup_s", setup_s, "s");
        out.add("sim_mips", slices.fresh_mips, "MIPS");
        out.add("rps", slices.rps, "1/s");
        out.add("req_p50_ms", slices.p50_ms, "ms");
        out.add("req_p99_ms", slices.p99_ms, "ms");
        out.add("shards_per_s", slices.rps, "1/s");
        out.add("peak_rss_mb", peakRssMb(), "MiB");
        return out;
    }

    const PhaseResult plain =
        runPhase(clients, hot_bodies, hot_stable, suite,
                 options.seconds * 0.5, out);
    const EngineStats before = service.engine->stats();
    setRecording(true);
    const PhaseResult traced =
        runPhase(clients, hot_bodies, hot_stable, suite,
                 options.seconds * 0.5, out);
    const EngineStats after = service.engine->stats();

    // Direct calls into the service layer's public functions.
    SimulationEngine &engine = *service.engine;
    std::vector<SimRequest> parsed(hot_bodies.size());
    constexpr int kCalls = 2000;
    double parse_ms = 0.0, key_ms = 0.0, submit_ms = 0.0;
    {
        Timer timer("service.parse");
        for (int i = 0; i < kCalls; ++i) {
            const std::size_t k = static_cast<std::size_t>(i) % parsed.size();
            if (!parseSimRequest(hot_bodies[k], parsed[k], error))
                throw std::runtime_error("serve_hot: " + error);
        }
        parse_ms = timer.stop();
    }
    {
        Timer timer("service.key");
        std::size_t bytes = 0;
        for (int i = 0; i < kCalls; ++i)
            bytes += parsed[static_cast<std::size_t>(i) % parsed.size()]
                         .canonicalKey()
                         .size();
        key_ms = timer.stop();
        if (bytes == 0)
            throw std::runtime_error("serve_hot: empty canonical keys");
    }
    std::vector<std::shared_ptr<const sipre::SimResult>> results;
    {
        Timer timer("service.submit_hit");
        for (int i = 0; i < kCalls; ++i) {
            const SubmitOutcome o =
                engine.submit(parsed[static_cast<std::size_t>(i) %
                                     parsed.size()]);
            ++out.attempted;
            if (o.status != SubmitStatus::kOk || !o.cache_hit) {
                out.fail("serve_hot: hot key missed the cache");
                continue;
            }
            if (results.size() < parsed.size())
                results.push_back(o.result);
        }
        submit_ms = timer.stop();
    }
    double serialize_ms = 0.0;
    {
        Timer timer("service.serialize");
        std::size_t bytes = 0;
        for (int i = 0; i < kCalls / 4 && !results.empty(); ++i)
            bytes += sipre::simResultToJson(
                         *results[static_cast<std::size_t>(i) %
                                  results.size()])
                         .size();
        serialize_ms = timer.stop();
        if (bytes == 0)
            throw std::runtime_error("serve_hot: empty result documents");
    }
    std::vector<double> fresh_ms;
    for (std::uint64_t i = 0; i < 20; ++i) {
        SimRequest request;
        // The loop's trace lengths at one FTQ entry fewer than any it
        // sends: fresh keys that cost what the loop's fresh keys cost.
        if (!parseSimRequest(simulateBody(suite[i % suite.size()].name,
                                          kFreshInstructions + i * 37 % 1000,
                                          kFreshFtq - 1),
                             request, error))
            throw std::runtime_error("serve_hot: " + error);
        Timer timer("service.submit_fresh");
        const SubmitOutcome o = engine.submit(request);
        fresh_ms.push_back(timer.stop());
        ++out.attempted;
        if (o.status != SubmitStatus::kOk || o.cache_hit)
            out.fail("serve_hot: fresh probe was not simulated");
    }
    setRecording(false);

    const double lookups = static_cast<double>(
        (after.cache_hits + after.disk_hits + after.coalesced +
         after.sim_runs + after.failures) -
        (before.cache_hits + before.disk_hits + before.coalesced +
         before.sim_runs + before.failures));
    out.add("service.parse_us", parse_ms * 1000.0 / kCalls, "us");
    out.add("service.key_us", key_ms * 1000.0 / kCalls, "us");
    out.add("service.serialize_us",
            serialize_ms * 1000.0 / (kCalls / 4), "us");
    out.add("service.submit_hit_us", submit_ms * 1000.0 / kCalls, "us");
    out.add("service.submit_fresh_ms", median(fresh_ms), "ms");
    out.add("service.http_us", median(traced.http_us), "us");
    out.add("service.cache_hit_rate",
            lookups > 0 ? static_cast<double>(after.cache_hits -
                                              before.cache_hits) /
                              lookups
                        : 0.0,
            "fraction");
    out.add("service.coalesced",
            static_cast<double>(after.coalesced - before.coalesced),
            "count");
    out.add("service.sim_runs",
            static_cast<double>(after.sim_runs - before.sim_runs), "count");
    out.add("service.rejected",
            static_cast<double>(after.rejected - before.rejected), "count");
    out.add("trace_obs.overhead_frac",
            sliceFigures(plain, options.seconds * 0.5).rps /
                    sliceFigures(traced, options.seconds * 0.5).rps -
                1.0,
            "fraction");
    return out;
}

} // namespace perfbench
