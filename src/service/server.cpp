#include "service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/json_io.hpp"
#include "trace_obs/recorder.hpp"
#include "util/fault.hpp"

namespace sipre::service
{

namespace
{

http::Response
jsonResponse(int status, std::string body)
{
    http::Response response;
    response.status = status;
    response.headers.emplace_back("Content-Type", "application/json");
    response.body = std::move(body);
    return response;
}

http::Response
errorResponse(int status, const std::string &message)
{
    return jsonResponse(status, "{\"status\":\"error\",\"error\":\"" +
                                    jsonEscape(message) + "\"}");
}

/** 405 with the mandatory Allow header (RFC 9110 §15.5.6). */
http::Response
methodNotAllowed(const std::string &allow)
{
    http::Response response =
        errorResponse(405, "method not allowed (Allow: " + allow + ")");
    response.headers.emplace_back("Allow", allow);
    return response;
}

} // namespace

ServiceServer::ServiceServer(SimulationEngine &engine,
                             const ServerOptions &options)
    : engine_(engine), options_(options)
{
    if (options_.connection_threads == 0)
        options_.connection_threads = 1;
}

ServiceServer::~ServiceServer()
{
    shutdown(/*drain_engine=*/true);
}

bool
ServiceServer::start(std::string *error)
{
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
        if (error)
            *error = "bad host address " + options_.host;
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
        if (error)
            *error = std::string("bind/listen: ") + std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }

    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) == 0)
        port_ = ntohs(bound.sin_port);

    accept_thread_ = std::thread([this] { acceptLoop(); });
    conn_threads_.reserve(options_.connection_threads);
    for (unsigned i = 0; i < options_.connection_threads; ++i)
        conn_threads_.emplace_back([this] { connectionLoop(); });
    started_ = true;
    return true;
}

void
ServiceServer::acceptLoop()
{
    while (!stopping_.load()) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 100 /*ms*/);
        if (ready <= 0)
            continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        connections_.fetch_add(1);
        {
            std::lock_guard<std::mutex> lock(conn_mutex_);
            pending_conns_.push_back(fd);
        }
        conn_cv_.notify_one();
    }
}

void
ServiceServer::connectionLoop()
{
    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(conn_mutex_);
            conn_cv_.wait(lock, [&] {
                return stopping_.load() || !pending_conns_.empty();
            });
            if (pending_conns_.empty()) {
                if (stopping_.load())
                    return;
                continue;
            }
            fd = pending_conns_.front();
            pending_conns_.pop_front();
        }
        handleConnection(fd);
    }
}

void
ServiceServer::handleConnection(int fd)
{
    // Register the fd so shutdown() can unblock a recv() on an idle
    // keep-alive connection via ::shutdown(fd, SHUT_RDWR).
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        active_fds_.push_back(fd);
    }
    const int write_timeout = options_.write_timeout_ms > 0
                                  ? static_cast<int>(
                                        options_.write_timeout_ms)
                                  : -1;
    std::string buffer;
    bool keep_alive = true;
    // Deadline for the request currently being read, armed when its
    // first byte arrives. The budget covers the *whole* request, so a
    // slow-loris dribbling one byte per poll can't reset it.
    auto request_deadline = std::chrono::steady_clock::time_point{};
    while (keep_alive && !stopping_.load()) {
        http::Request request;
        std::size_t consumed = 0;
        std::string parse_error;
        const http::ParseStatus status =
            http::parseRequest(buffer, request, consumed, parse_error);
        if (status == http::ParseStatus::kBad) {
            http::Response response =
                errorResponse(400, "malformed request: " + parse_error);
            response.headers.emplace_back("Connection", "close");
            http::sendAll(fd, http::serializeResponse(response),
                          write_timeout);
            break;
        }
        if (status == http::ParseStatus::kNeedMore) {
            const bool mid_request = !buffer.empty();
            int timeout = -1;
            if (mid_request && options_.read_timeout_ms > 0) {
                if (request_deadline ==
                    std::chrono::steady_clock::time_point{})
                    request_deadline =
                        std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(
                            options_.read_timeout_ms);
                const auto left =
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(
                        request_deadline -
                        std::chrono::steady_clock::now())
                        .count();
                timeout = static_cast<int>(
                    std::max<long long>(0, left));
            } else if (!mid_request && options_.idle_timeout_ms > 0) {
                timeout = static_cast<int>(options_.idle_timeout_ms);
            }
            const http::IoStatus io =
                http::recvSome(fd, buffer, timeout);
            if (io == http::IoStatus::kTimeout) {
                if (mid_request) {
                    // Slow-loris (or a stalled sender): evict with a
                    // 408 so the thread goes back to serving others.
                    connections_timed_out_.fetch_add(1);
                    http::Response response = errorResponse(
                        408, "request read deadline exceeded");
                    response.headers.emplace_back("Connection",
                                                  "close");
                    http::sendAll(fd,
                                  http::serializeResponse(response),
                                  write_timeout);
                } else {
                    connections_idle_reaped_.fetch_add(1);
                }
                break;
            }
            if (io != http::IoStatus::kOk)
                break; // peer closed or errored
            continue;
        }
        buffer.erase(0, consumed);
        request_deadline = {};

        const std::string *connection = request.header("Connection");
        keep_alive = !(request.version == "HTTP/1.0" ||
                       (connection != nullptr &&
                        http::headerHasToken(*connection, "close")));

        http::Response response = dispatch(request);
        response.headers.emplace_back("Connection",
                                      keep_alive ? "keep-alive" : "close");
        if (!http::sendAll(fd, http::serializeResponse(response),
                           write_timeout)) {
            // A reader that stopped draining its socket counts as a
            // deadline eviction, not a normal disconnect.
            if (errno == ETIMEDOUT)
                connections_timed_out_.fetch_add(1);
            break;
        }
    }
    // Unregister before close so shutdown() never touches a stale fd:
    // its fd sweep also runs under conn_mutex_.
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        active_fds_.erase(
            std::find(active_fds_.begin(), active_fds_.end(), fd));
    }
    ::close(fd);
}

http::Response
ServiceServer::dispatch(const http::Request &request)
{
    trace_obs::Span span("http.request", "service");
    span.arg("method", request.method);
    span.arg("target", request.target);
    http::Response response = route(request);
    // Unknown paths and wrong methods are client mistakes worth
    // watching for (a misdeployed client, a scanner): count them.
    if (response.status == 404 || response.status == 405)
        requests_rejected_.fetch_add(1);
    return response;
}

http::Response
ServiceServer::route(const http::Request &request)
{
    if (request.target == "/simulate") {
        if (request.method != "POST")
            return methodNotAllowed("POST");
        return handleSimulate(request);
    }
    if (request.target == "/healthz") {
        if (request.method != "GET")
            return methodNotAllowed("GET");
        return handleHealthz();
    }
    if (request.target == "/readyz" ||
        request.target == "/healthz?ready=1") {
        if (request.method != "GET")
            return methodNotAllowed("GET");
        return handleReadyz();
    }
    if (request.target == "/metrics") {
        if (request.method != "GET")
            return methodNotAllowed("GET");
        return handleMetrics();
    }
    for (const RouteHandler &handler : handlers_) {
        if (auto response = handler(request))
            return std::move(*response);
    }
    return errorResponse(404, "no route for " + request.target);
}

void
ServiceServer::addHandler(RouteHandler handler)
{
    handlers_.push_back(std::move(handler));
}

void
ServiceServer::addMetricsProvider(std::function<std::string()> provider)
{
    metrics_providers_.push_back(std::move(provider));
}

http::Response
ServiceServer::handleSimulate(const http::Request &request)
{
    SimRequest sim_request;
    std::string error;
    if (!parseSimRequest(request.body, sim_request, error))
        return errorResponse(400, error);

    const SubmitOutcome outcome = engine_.submit(sim_request);
    switch (outcome.status) {
    case SubmitStatus::kRejected: {
        http::Response response = jsonResponse(
            429, "{\"status\":\"rejected\",\"error\":\"" +
                     jsonEscape(outcome.error) + "\"}");
        response.headers.emplace_back("Retry-After", "1");
        return response;
    }
    case SubmitStatus::kShutdown:
        return jsonResponse(503, "{\"status\":\"draining\",\"error\":\"" +
                                     jsonEscape(outcome.error) + "\"}");
    case SubmitStatus::kFailed:
        return errorResponse(500, outcome.error);
    case SubmitStatus::kOk:
        break;
    }

    // The per-request fields, then the result's encoding as the engine
    // made it once when the result entered its cache: a hit encodes
    // nothing.
    const std::string &result_json = *outcome.result_json;
    std::string body;
    body.reserve(1024 + result_json.size());
    JsonSink os(body);
    os << "{\"status\":\"ok\",\"key\":\""
       << jsonEscape(outcome.key) << "\",\"cached\":"
       << (outcome.cache_hit ? "true" : "false") << ",\"coalesced\":"
       << (outcome.coalesced ? "true" : "false");
    // Additive-only field: emitted solely when a cluster backend
    // resolved the request, so single-node response bodies stay
    // byte-identical.
    if (outcome.proxied)
        os << ",\"proxied\":true";
    os << ",\"latency_us\":" << jsonDouble(outcome.latency_us)
       << ",\"request\":" << requestToJson(sim_request)
       << ",\"result\":" << result_json << '}';
    return jsonResponse(200, std::move(body));
}

http::Response
ServiceServer::handleHealthz() const
{
    // Liveness only: a draining daemon is still alive and still
    // serving, so it answers 200 (with an honest status) — readiness
    // is /readyz's job. The cluster failure detector relies on this
    // split to tell "dying" from "degraded".
    if (draining_.load() || stopping_.load())
        return jsonResponse(200, "{\"status\":\"draining\"}");

    const EngineStats stats = engine_.stats();
    std::ostringstream body;
    body << "{\"status\":\"ok\",\"workers\":" << stats.workers
         << ",\"workers_busy\":" << stats.workers_busy
         << ",\"queue_depth\":" << stats.queue_depth
         << ",\"queue_capacity\":" << stats.queue_capacity
         << ",\"inflight\":" << stats.inflight
         << ",\"cache_entries\":" << stats.cache_entries
         << ",\"cache_capacity\":" << stats.cache_capacity
         << ",\"requests_total\":" << stats.requests << "}";
    return jsonResponse(200, body.str());
}

http::Response
ServiceServer::handleReadyz() const
{
    // Readiness: should a load balancer (or a cluster peer) route new
    // work here? Draining says no — this daemon is on its way out, so
    // route elsewhere *before* the listener disappears mid-request.
    if (draining_.load() || stopping_.load())
        return jsonResponse(
            503, "{\"status\":\"not_ready\",\"reason\":\"draining\"}");
    // The registered probe (the cluster tier) can report a degraded —
    // but still live and routable — state, e.g. "peer-degraded" when
    // the failure detector has peers marked down.
    if (readiness_probe_) {
        if (const auto reason = readiness_probe_())
            return jsonResponse(
                503, "{\"status\":\"not_ready\",\"reason\":\"" +
                         jsonEscape(*reason) + "\"}");
    }
    return jsonResponse(200, "{\"status\":\"ready\"}");
}

http::Response
ServiceServer::handleMetrics() const
{
    const EngineStats stats = engine_.stats();
    std::ostringstream body;
    body << "# TYPE sipre_requests_total counter\n"
         << "sipre_requests_total " << stats.requests << "\n"
         << "# TYPE sipre_sim_runs_total counter\n"
         << "sipre_sim_runs_total " << stats.sim_runs << "\n"
         << "# TYPE sipre_cache_hits_total counter\n"
         << "sipre_cache_hits_total " << stats.cache_hits << "\n"
         << "# TYPE sipre_coalesced_total counter\n"
         << "sipre_coalesced_total " << stats.coalesced << "\n"
         << "# TYPE sipre_rejected_total counter\n"
         << "sipre_rejected_total " << stats.rejected << "\n"
         << "# TYPE sipre_failures_total counter\n"
         << "sipre_failures_total " << stats.failures << "\n"
         << "# TYPE sipre_cache_evictions_total counter\n"
         << "sipre_cache_evictions_total " << stats.cache_evictions
         << "\n"
         << "# TYPE sipre_connections_total counter\n"
         << "sipre_connections_total " << connections_.load() << "\n"
         << "# TYPE sipre_requests_rejected_total counter\n"
         << "sipre_requests_rejected_total " << requests_rejected_.load()
         << "\n"
         << "# TYPE sipre_connections_timed_out_total counter\n"
         << "sipre_connections_timed_out_total "
         << connections_timed_out_.load() << "\n"
         << "# TYPE sipre_connections_idle_reaped_total counter\n"
         << "sipre_connections_idle_reaped_total "
         << connections_idle_reaped_.load() << "\n"
         << "# TYPE sipre_queue_depth gauge\n"
         << "sipre_queue_depth " << stats.queue_depth << "\n"
         << "# TYPE sipre_inflight gauge\n"
         << "sipre_inflight " << stats.inflight << "\n"
         << "# TYPE sipre_workers_busy gauge\n"
         << "sipre_workers_busy " << stats.workers_busy << "\n"
         << "# TYPE sipre_workers gauge\n"
         << "sipre_workers " << stats.workers << "\n"
         << "# TYPE sipre_cache_entries gauge\n"
         << "sipre_cache_entries " << stats.cache_entries << "\n"
         << "# TYPE sipre_cache_hit_rate gauge\n"
         << "sipre_cache_hit_rate " << jsonDouble(stats.cacheHitRate())
         << "\n"
         << "# TYPE sipre_request_latency_us summary\n"
         << "sipre_request_latency_us_count " << stats.latency_count
         << "\n"
         << "sipre_request_latency_us_sum "
         << jsonDouble(stats.latency_sum_us) << "\n"
         << "sipre_request_latency_us{quantile=\"0.5\"} "
         << stats.latency_p50_us << "\n"
         << "sipre_request_latency_us{quantile=\"0.9\"} "
         << stats.latency_p90_us << "\n"
         << "sipre_request_latency_us{quantile=\"0.99\"} "
         << stats.latency_p99_us << "\n";
    // Multi-core contention: per-core shared-LLC demand attribution and
    // the DRAM queue occupancy distribution, accumulated over every
    // fresh multi-core run. Emitted only once such a run has happened
    // so single-core deployments keep a clean scrape.
    if (stats.multicore_runs > 0) {
        body << "# TYPE sipre_multicore_runs_total counter\n"
             << "sipre_multicore_runs_total " << stats.multicore_runs
             << "\n"
             << "# TYPE sipre_multicore_llc_demand_total counter\n";
        for (std::size_t i = 0; i < stats.mc_llc_core_hits.size(); ++i) {
            body << "sipre_multicore_llc_demand_total{core=\"" << i
                 << "\",outcome=\"hit\"} " << stats.mc_llc_core_hits[i]
                 << "\n"
                 << "sipre_multicore_llc_demand_total{core=\"" << i
                 << "\",outcome=\"miss\"} "
                 << stats.mc_llc_core_misses[i] << "\n";
        }
        body << "# TYPE sipre_multicore_dram_queue_depth summary\n"
             << "sipre_multicore_dram_queue_depth_count "
             << stats.mc_dram_depth_count << "\n"
             << "sipre_multicore_dram_queue_depth_sum "
             << stats.mc_dram_depth_sum << "\n"
             << "sipre_multicore_dram_queue_depth{quantile=\"0.5\"} "
             << stats.mc_dram_depth_p50 << "\n"
             << "sipre_multicore_dram_queue_depth{quantile=\"0.9\"} "
             << stats.mc_dram_depth_p90 << "\n"
             << "sipre_multicore_dram_queue_depth{quantile=\"0.99\"} "
             << stats.mc_dram_depth_p99 << "\n";
    }
    // Hardware instruction prefetching: per-component candidate-flow
    // and outcome counters, accumulated over every fresh run with a
    // prefetcher installed. Emitted only once such a run has happened
    // so unprefetched deployments keep a clean scrape.
    if (stats.hwpf_runs > 0) {
        body << "# TYPE sipre_hwpf_runs_total counter\n"
             << "sipre_hwpf_runs_total " << stats.hwpf_runs << "\n"
             << "# TYPE sipre_hwpf_prefetches_total counter\n";
        for (const HwPrefetchCounters &c : stats.hwpf) {
            body << "sipre_hwpf_prefetches_total{component=\"" << c.name
                 << "\",outcome=\"issued\"} " << c.issued << "\n"
                 << "sipre_hwpf_prefetches_total{component=\"" << c.name
                 << "\",outcome=\"filtered\"} " << c.filtered << "\n"
                 << "sipre_hwpf_prefetches_total{component=\"" << c.name
                 << "\",outcome=\"useful\"} " << c.useful << "\n"
                 << "sipre_hwpf_prefetches_total{component=\"" << c.name
                 << "\",outcome=\"late\"} " << c.late << "\n"
                 << "sipre_hwpf_prefetches_total{component=\"" << c.name
                 << "\",outcome=\"polluting\"} " << c.polluting << "\n";
        }
        body << "# TYPE sipre_hwpf_drops_total counter\n";
        for (const HwPrefetchCounters &c : stats.hwpf) {
            body << "sipre_hwpf_drops_total{component=\"" << c.name
                 << "\",reason=\"overflow\"} " << c.dropped_overflow
                 << "\n"
                 << "sipre_hwpf_drops_total{component=\"" << c.name
                 << "\",reason=\"redirect\"} " << c.dropped_redirect
                 << "\n"
                 << "sipre_hwpf_drops_total{component=\"" << c.name
                 << "\",reason=\"tlb\"} " << c.dropped_tlb << "\n";
        }
        body << "# TYPE sipre_hwpf_deferred_total counter\n"
             << "# TYPE sipre_hwpf_demoted_fills_total counter\n";
        for (const HwPrefetchCounters &c : stats.hwpf) {
            body << "sipre_hwpf_deferred_total{component=\"" << c.name
                 << "\"} " << c.deferred_tlb << "\n"
                 << "sipre_hwpf_demoted_fills_total{component=\"" << c.name
                 << "\"} " << c.demoted_fills << "\n";
        }
    }
    // AsmDB distance providers: per-provider pipeline accounting,
    // accumulated over every fresh AsmDB-family run. Emitted only once
    // such a run has happened so base-mode deployments keep a clean
    // scrape.
    if (stats.asmdb_runs > 0) {
        body << "# TYPE sipre_asmdb_runs_total counter\n"
             << "sipre_asmdb_runs_total " << stats.asmdb_runs << "\n"
             << "# TYPE sipre_asmdb_provider_runs_total counter\n"
             << "# TYPE sipre_asmdb_provider_insertions_total counter\n"
             << "# TYPE sipre_asmdb_provider_tuned_targets_total "
                "counter\n"
             << "# TYPE sipre_asmdb_provider_eval_runs_total counter\n"
             << "# TYPE sipre_asmdb_provider_min_distance_avg gauge\n";
        for (const ProviderCounters &p : stats.providers) {
            body << "sipre_asmdb_provider_runs_total{provider=\""
                 << p.name << "\"} " << p.runs << "\n"
                 << "sipre_asmdb_provider_insertions_total{provider=\""
                 << p.name << "\"} " << p.insertions << "\n"
                 << "sipre_asmdb_provider_tuned_targets_total{provider"
                    "=\""
                 << p.name << "\"} " << p.tuned_targets << "\n"
                 << "sipre_asmdb_provider_eval_runs_total{provider=\""
                 << p.name << "\"} " << p.eval_runs << "\n"
                 << "sipre_asmdb_provider_min_distance_avg{provider=\""
                 << p.name << "\"} "
                 << (p.pipelines == 0
                         ? 0.0
                         : static_cast<double>(p.distance_sum) /
                               static_cast<double>(p.pipelines))
                 << "\n";
        }
    }
    for (const auto &provider : metrics_providers_)
        body << provider();
    // Accounts for every injected fault; empty when injection is off.
    body << fault::Injector::global().metricsText();
    body << trace_obs::Recorder::global().metricsText();
    http::Response response;
    response.status = 200;
    response.headers.emplace_back("Content-Type",
                                  "text/plain; version=0.0.4");
    response.body = body.str();
    return response;
}

void
ServiceServer::shutdown(bool drain_engine)
{
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shut_down_) {
        return;
    }
    shut_down_ = true;
    draining_.store(true);
    {
        // Set under conn_mutex_ so sleeping connection threads can't
        // miss the wakeup between their predicate check and block.
        std::lock_guard<std::mutex> conn_lock(conn_mutex_);
        stopping_.store(true);
        // Unblock threads sitting in recv() on idle keep-alive
        // connections; they see EOF and exit their request loop. A
        // thread that registers its fd after this sweep observes
        // stopping_ (same mutex) before it can block.
        for (const int fd : active_fds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    conn_cv_.notify_all();
    if (started_) {
        accept_thread_.join();
        for (auto &thread : conn_threads_)
            thread.join();
    }
    // Close any accepted-but-unserved connections.
    for (const int fd : pending_conns_)
        ::close(fd);
    pending_conns_.clear();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    engine_.shutdown(drain_engine);
}

} // namespace sipre::service
