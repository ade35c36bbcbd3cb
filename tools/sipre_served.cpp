/**
 * @file
 * The resident simulation service daemon: accepts JSON simulation
 * requests over loopback HTTP, coalesces duplicates, caches results in
 * memory (optionally warm-started from / flushed to a cache file), and
 * exposes /healthz and /metrics. SIGINT/SIGTERM drain in-flight
 * requests, flush the result cache, and exit 0.
 *
 * Asynchronous campaign jobs (POST /jobs and friends) execute sweeps
 * through the same engine; job records checkpoint to --jobs-dir so a
 * restarted daemon resumes unfinished jobs without re-simulating
 * completed shards.
 *
 * Usage:
 *   sipre_served [--port N] [--workers N] [--queue N] [--cache N]
 *                [--cache-file PATH] [--conn-threads N]
 *                [--jobs-dir DIR] [--max-jobs N]
 *                [--job-workers N] [--read-timeout-ms N]
 *                [--write-timeout-ms N] [--idle-timeout-ms N]
 *                [--faults SPEC] [--trace] [--trace-buffer N]
 *                [--scenario-window N]
 *                [--cluster-peers LIST --cluster-self HOST:PORT ...]
 *
 * With --cluster-peers the daemon joins a static-membership peer tier:
 * canonical request keys are rendezvous-hashed to an owner node and
 * non-owners proxy over POST /cluster/simulate, so N daemons act as one
 * horizontally scaled service that survives node loss (DESIGN.md §14).
 */
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include <unistd.h>

#include "cluster/cluster.hpp"
#include "core/options.hpp"
#include "jobs/http.hpp"
#include "jobs/manager.hpp"
#include "service/engine.hpp"
#include "service/server.hpp"
#include "trace_obs/recorder.hpp"
#include "util/fault.hpp"

using namespace sipre;
using namespace sipre::service;

namespace
{

/** Self-pipe written by the signal handler, read by main. */
int g_signal_pipe[2] = {-1, -1};

extern "C" void
onSignal(int signo)
{
    const char byte = static_cast<char>(signo);
    // Best-effort: if the pipe is full a shutdown is already pending.
    [[maybe_unused]] const ssize_t n =
        ::write(g_signal_pipe[1], &byte, 1);
}

void
usage(const char *argv0, int exit_code)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --port N             listen port (default 8100; 0 = ephemeral)\n"
        "  --workers N          simulation worker threads (default 2)\n"
        "  --queue N            bounded queue capacity (default 8);\n"
        "                       further requests get 429 backpressure\n"
        "  --cache N            in-memory LRU result entries (default "
        "256)\n"
        "  --cache-file PATH    warm-start the result cache from PATH and\n"
        "                       flush it back on graceful shutdown\n"
        "  --conn-threads N     HTTP connection threads (default 4)\n"
        "  --jobs-dir DIR       persistent job records (default "
        "sipre_jobs;\n"
        "                       unfinished jobs resume on restart)\n"
        "  --max-jobs N         active async jobs before 429 (default "
        "4)\n"
        "  --job-workers N      shard executor threads (default 2)\n"
        "  --read-timeout-ms N  whole-request read deadline; slow\n"
        "                       requests get 408 (default 10000; 0 = "
        "none)\n"
        "  --write-timeout-ms N response write deadline (default "
        "10000;\n"
        "                       0 = none)\n"
        "  --idle-timeout-ms N  idle keep-alive reap deadline (default\n"
        "                       60000; 0 = none)\n"
        "  --faults SPEC        deterministic fault injection, e.g.\n"
        "                       'seed=7,recv:err=0.01,fsync:fail=after:"
        "3'\n"
        "                       (also via SIPRE_FAULTS; see DESIGN.md "
        "§10)\n"
        "  --trace              arm the span recorder (also via\n"
        "                       SIPRE_TRACE=1); spans surface on\n"
        "                       GET /jobs/<id>/trace\n"
        "  --trace-buffer N     per-thread trace buffer capacity in\n"
        "                       events (default 65536; implies --trace)\n"
        "  --scenario-window N  record an FTQ scenario timeline with\n"
        "                       N-cycle windows on freshly simulated\n"
        "                       results (default 0 = off)\n"
        "  --cluster-peers LIST comma-separated host:port member list\n"
        "                       (every node passes the same list);\n"
        "                       enables the peer tier\n"
        "  --cluster-self H:P   this node's identity, spelled exactly\n"
        "                       as it appears in --cluster-peers\n"
        "  --cluster-probe-interval-ms N\n"
        "                       failure-detector probe period (default "
        "500)\n"
        "  --cluster-probe-timeout-ms N\n"
        "                       per-probe deadline (default 2000)\n"
        "  --cluster-down-after N\n"
        "                       consecutive probe failures before a peer\n"
        "                       is down (default 3)\n"
        "  --cluster-up-after N consecutive probe successes before a\n"
        "                       down peer recovers (default 2)\n"
        "  --help               this text\n",
        argv0);
    std::exit(exit_code);
}

} // namespace

int
main(int argc, char **argv)
{
    EngineOptions engine_options;
    ServerOptions server_options;
    server_options.port = 8100;
    std::string cache_file;
    jobs::JobManagerOptions job_options;
    job_options.store_dir = "sipre_jobs";
    cluster::ClusterOptions cluster_options;
    bool trace = false;
    std::size_t trace_buffer = trace_obs::kDefaultCapacityPerThread;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0], 2);
            return argv[++i];
        };
        // Structured diagnostic + exit 2 on junk numeric values instead
        // of an uncaught std::stoul exception aborting the daemon.
        auto num = [&](std::uint64_t max) -> std::uint64_t {
            const std::string value = next();
            const auto parsed = parseUnsigned(value, max);
            if (!parsed) {
                std::fprintf(
                    stderr,
                    "sipre_served: error: invalid %s value '%s' "
                    "(expected an integer in [0, %llu])\n",
                    arg.c_str(), value.c_str(),
                    static_cast<unsigned long long>(max));
                std::exit(2);
            }
            return *parsed;
        };
        if (arg == "--port") {
            server_options.port =
                static_cast<std::uint16_t>(num(65535));
        } else if (arg == "--workers") {
            engine_options.workers = static_cast<unsigned>(num(1024));
        } else if (arg == "--queue") {
            engine_options.queue_capacity = num(~std::uint64_t{0});
        } else if (arg == "--cache") {
            engine_options.cache_capacity = num(~std::uint64_t{0});
        } else if (arg == "--cache-file") {
            cache_file = next();
        } else if (arg == "--conn-threads") {
            server_options.connection_threads =
                static_cast<unsigned>(num(1024));
        } else if (arg == "--jobs-dir") {
            job_options.store_dir = next();
        } else if (arg == "--max-jobs") {
            job_options.max_active_jobs = num(~std::uint64_t{0});
        } else if (arg == "--job-workers") {
            job_options.shard_workers =
                static_cast<unsigned>(num(1024));
        } else if (arg == "--read-timeout-ms") {
            server_options.read_timeout_ms =
                static_cast<int>(num(3'600'000));
        } else if (arg == "--write-timeout-ms") {
            server_options.write_timeout_ms =
                static_cast<int>(num(3'600'000));
        } else if (arg == "--idle-timeout-ms") {
            server_options.idle_timeout_ms =
                static_cast<int>(num(3'600'000));
        } else if (arg == "--trace") {
            trace = true;
        } else if (arg == "--trace-buffer") {
            trace = true;
            trace_buffer = static_cast<std::size_t>(
                num(~std::uint64_t{0} >> 1));
        } else if (arg == "--scenario-window") {
            engine_options.scenario_window =
                static_cast<std::uint32_t>(num(~std::uint32_t{0}));
        } else if (arg == "--cluster-peers") {
            const std::string csv = next();
            std::string peers_error;
            if (!cluster::parsePeerList(csv, cluster_options.peers,
                                        &peers_error)) {
                std::fprintf(stderr,
                             "sipre_served: error: bad --cluster-peers "
                             "'%s': %s\n",
                             csv.c_str(), peers_error.c_str());
                return 2;
            }
        } else if (arg == "--cluster-self") {
            cluster_options.self = next();
        } else if (arg == "--cluster-probe-interval-ms") {
            cluster_options.probe_interval_ms = num(3'600'000);
        } else if (arg == "--cluster-probe-timeout-ms") {
            cluster_options.probe_timeout_ms =
                static_cast<unsigned>(num(3'600'000));
        } else if (arg == "--cluster-down-after") {
            cluster_options.down_after =
                static_cast<unsigned>(num(1'000'000));
        } else if (arg == "--cluster-up-after") {
            cluster_options.up_after =
                static_cast<unsigned>(num(1'000'000));
        } else if (arg == "--faults") {
            const std::string spec = next();
            std::string fault_error;
            if (!fault::Injector::global().configure(spec,
                                                     &fault_error)) {
                std::fprintf(
                    stderr,
                    "sipre_served: error: bad --faults spec '%s': %s\n",
                    spec.c_str(), fault_error.c_str());
                return 2;
            }
            std::fprintf(stderr,
                         "[sipre_served] fault injection armed: %s\n",
                         spec.c_str());
        } else if (arg == "--help") {
            usage(argv[0], 0);
        } else {
            std::fprintf(stderr,
                         "sipre_served: error: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    const bool cluster_mode = !cluster_options.peers.empty();
    if (cluster_mode && cluster_options.self.empty()) {
        std::fprintf(stderr, "sipre_served: error: --cluster-peers "
                             "requires --cluster-self\n");
        return 2;
    }
    if (cluster_mode) {
        std::string host;
        std::uint16_t port = 0;
        if (!cluster::splitHostPort(cluster_options.self, host, port)) {
            std::fprintf(stderr,
                         "sipre_served: error: bad --cluster-self "
                         "'%s' (expected host:port)\n",
                         cluster_options.self.c_str());
            return 2;
        }
    }

    if (::pipe(g_signal_pipe) != 0) {
        std::perror("sipre_served: pipe");
        return 1;
    }

    // Arm before the engine spawns its workers so every thread's buffer
    // gets the requested capacity.
    if (trace) {
        trace_obs::Recorder::global().enable(trace_buffer);
        std::fprintf(stderr,
                     "[sipre_served] tracing armed (%zu events/thread)\n",
                     trace_buffer);
    }

    SimulationEngine engine(engine_options);
    if (!cache_file.empty()) {
        const long loaded = engine.loadResultCache(cache_file);
        if (loaded >= 0)
            std::fprintf(stderr,
                         "[sipre_served] warm-started %ld results from "
                         "%s\n",
                         loaded, cache_file.c_str());
    }

    // The peer tier must be installed on the engine before the job
    // manager resumes persisted jobs — resumed shards should shard
    // across the cluster exactly like fresh ones.
    std::unique_ptr<cluster::ClusterTier> cluster_tier;
    if (cluster_mode) {
        cluster_tier = std::make_unique<cluster::ClusterTier>(
            engine, cluster_options);
        engine.setResultBackend(cluster_tier.get());
        std::fprintf(
            stderr,
            "[sipre_served] cluster mode: %zu members, self %s\n",
            cluster_tier->members().size(),
            cluster_tier->self().c_str());
    }

    jobs::JobManager job_manager(engine, job_options);
    if (job_manager.resumedJobs() > 0)
        std::fprintf(stderr,
                     "[sipre_served] resumed %llu unfinished job(s) from "
                     "%s\n",
                     static_cast<unsigned long long>(
                         job_manager.resumedJobs()),
                     job_options.store_dir.c_str());
    jobs::JobHttpHandler job_handler(job_manager);

    ServiceServer server(engine, server_options);
    server.addHandler([&job_handler](const http::Request &request) {
        return job_handler.handle(request);
    });
    server.addMetricsProvider(
        [&job_handler] { return job_handler.metricsText(); });
    if (cluster_tier != nullptr) {
        cluster::ClusterTier *tier = cluster_tier.get();
        server.addHandler([tier](const http::Request &request) {
            return tier->handle(request);
        });
        server.addMetricsProvider(
            [tier] { return tier->metricsText(); });
        server.setReadinessProbe(
            [tier] { return tier->readinessReason(); });
    }
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "sipre_served: error: %s\n", error.c_str());
        return 1;
    }
    if (cluster_tier != nullptr)
        cluster_tier->start();

    struct sigaction action{};
    action.sa_handler = onSignal;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    std::fprintf(stderr,
                 "[sipre_served] listening on %s:%u (%u workers, queue "
                 "%zu, cache %zu)\n",
                 server_options.host.c_str(),
                 static_cast<unsigned>(server.port()),
                 engine_options.workers, engine_options.queue_capacity,
                 engine_options.cache_capacity);

    // Block until a termination signal arrives.
    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }

    std::fprintf(stderr, "[sipre_served] draining and shutting down\n");
    // Order matters: flip /healthz to draining first, stop the shard
    // executors while the engine is still live (in-flight shards finish
    // and checkpoint; the rest stays pending on disk), then drain the
    // engine and close the listener.
    server.beginDrain();
    job_manager.shutdown();
    if (cluster_tier != nullptr)
        cluster_tier->shutdown();
    server.shutdown(/*drain_engine=*/true);

    if (!cache_file.empty()) {
        const long flushed = engine.saveResultCache(cache_file);
        if (flushed >= 0)
            std::fprintf(stderr,
                         "[sipre_served] flushed %ld results to %s\n",
                         flushed, cache_file.c_str());
        else
            std::fprintf(stderr,
                         "[sipre_served] warning: cannot write %s\n",
                         cache_file.c_str());
    }

    const EngineStats stats = engine.stats();
    std::fprintf(stderr,
                 "[sipre_served] served %llu requests (%llu simulated, "
                 "%llu cache hits, %llu coalesced, %llu rejected)\n",
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.sim_runs),
                 static_cast<unsigned long long>(stats.cache_hits),
                 static_cast<unsigned long long>(stats.coalesced),
                 static_cast<unsigned long long>(stats.rejected));
    const jobs::JobManagerStats job_stats = job_manager.stats();
    if (job_stats.jobs_total > 0 || job_stats.submitted > 0)
        std::fprintf(
            stderr,
            "[sipre_served] jobs: %llu submitted, %llu completed, %llu "
            "failed, %llu cancelled, %zu unfinished in %s\n",
            static_cast<unsigned long long>(job_stats.submitted),
            static_cast<unsigned long long>(job_stats.completed),
            static_cast<unsigned long long>(job_stats.failed),
            static_cast<unsigned long long>(job_stats.cancelled),
            job_stats.jobs_active, job_options.store_dir.c_str());
    return 0;
}
