#include "cluster/cluster.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <sstream>

#include <unistd.h>

#include "core/json_io.hpp"
#include "core/result_text.hpp"
#include "util/fault.hpp"
#include "util/rendezvous.hpp"

namespace sipre::cluster
{

namespace
{

using service::http::Request;
using service::http::Response;

Response
jsonResponse(int status, std::string body)
{
    Response response;
    response.status = status;
    response.headers.emplace_back("Content-Type", "application/json");
    response.body = std::move(body);
    return response;
}

} // namespace

service::RetryPolicy
defaultProxyPolicy()
{
    service::RetryPolicy policy;
    policy.max_attempts = 3;
    policy.base_delay_ms = 25;
    policy.max_delay_ms = 250;
    policy.request_timeout_ms = 10'000;
    policy.total_deadline_ms = 12'000;
    return policy;
}

bool
splitHostPort(const std::string &node, std::string &host,
              std::uint16_t &port)
{
    const std::size_t colon = node.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= node.size())
        return false;
    std::uint64_t value = 0;
    for (std::size_t i = colon + 1; i < node.size(); ++i) {
        const char c = node[i];
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
        if (value > 65535)
            return false;
    }
    if (value == 0)
        return false;
    host = node.substr(0, colon);
    port = static_cast<std::uint16_t>(value);
    return true;
}

bool
parsePeerList(const std::string &csv, std::vector<std::string> &out,
              std::string *error)
{
    out.clear();
    std::string entry;
    std::istringstream is(csv);
    while (std::getline(is, entry, ',')) {
        // Trim surrounding whitespace so "a:1, b:2" works.
        const auto first = entry.find_first_not_of(" \t");
        const auto last = entry.find_last_not_of(" \t");
        if (first == std::string::npos) {
            if (error)
                *error = "empty peer entry in '" + csv + "'";
            return false;
        }
        entry = entry.substr(first, last - first + 1);
        std::string host;
        std::uint16_t port = 0;
        if (!splitHostPort(entry, host, port)) {
            if (error)
                *error = "bad peer '" + entry +
                         "' (expected host:port with a numeric port)";
            return false;
        }
        out.push_back(entry);
    }
    if (out.empty()) {
        if (error)
            *error = "empty peer list";
        return false;
    }
    return true;
}

ClusterTier::ClusterTier(service::SimulationEngine &engine,
                         const ClusterOptions &options)
    : engine_(engine), options_(options), self_(options.self)
{
    members_ = options_.peers;
    members_.push_back(self_);
    std::sort(members_.begin(), members_.end());
    members_.erase(std::unique(members_.begin(), members_.end()),
                   members_.end());

    for (const std::string &node : members_) {
        if (node == self_)
            continue;
        Peer peer;
        peer.state.node = node;
        if (!splitHostPort(node, peer.host, peer.port))
            continue; // parsePeerList validated; belt and braces
        peers_.push_back(std::move(peer));
    }
    if (options_.down_after == 0)
        options_.down_after = 1;
    if (options_.up_after == 0)
        options_.up_after = 1;
}

ClusterTier::~ClusterTier()
{
    shutdown();
}

void
ClusterTier::start()
{
    if (started_ || peers_.empty())
        return;
    started_ = true;
    probe_thread_ = std::thread([this] { probeLoop(); });
}

void
ClusterTier::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(probe_mutex_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    probe_cv_.notify_all();
    if (probe_thread_.joinable())
        probe_thread_.join();
}

void
ClusterTier::probeLoop()
{
    for (;;) {
        probeAllOnce();
        std::unique_lock<std::mutex> lock(probe_mutex_);
        probe_cv_.wait_for(
            lock, std::chrono::milliseconds(options_.probe_interval_ms),
            [this] { return stopping_; });
        if (stopping_)
            return;
    }
}

void
ClusterTier::probeAllOnce()
{
    // Snapshot the endpoints, probe over the network without holding
    // the state lock, then apply the verdicts.
    struct Verdict
    {
        std::size_t index;
        bool ok;
        std::string error;
    };
    std::vector<Verdict> verdicts;
    std::size_t count = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        count = peers_.size();
    }
    for (std::size_t i = 0; i < count; ++i) {
        std::string host;
        std::uint16_t port = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            host = peers_[i].host;
            port = peers_[i].port;
        }

        Request probe;
        probe.method = "GET";
        probe.target = "/readyz";
        Response response;
        std::string error;
        bool ok = false;
        const int fd = service::http::dialTcp(host, port, &error);
        if (fd >= 0) {
            ok = service::http::roundTrip(
                fd, probe, response, &error,
                static_cast<int>(options_.probe_timeout_ms));
            ::close(fd);
        }
        bool up_vote = false;
        std::string reason;
        if (!ok) {
            // Unreachable, refused, or wedged: the liveness failure
            // the detector exists for.
            reason = error.empty() ? "probe failed" : error;
        } else if (response.status == 503 &&
                   response.body.find("\"reason\":\"draining\"") !=
                       std::string::npos) {
            // Live but on its way out: treat as down so new work
            // routes elsewhere before the listener disappears.
            reason = "peer draining";
        } else {
            // 200 ready — or degraded-but-routable (peer-degraded
            // readiness, or a pre-readyz node answering 404): the peer
            // can still execute work, so it stays in the ring.
            up_vote = true;
        }
        verdicts.push_back({i, up_vote, std::move(reason)});
    }

    std::lock_guard<std::mutex> lock(mutex_);
    for (const Verdict &v : verdicts) {
        if (v.index >= peers_.size())
            continue;
        Peer &peer = peers_[v.index];
        if (v.ok) {
            ++probes_ok_;
            ++peer.state.probes_ok;
            ++peer.consecutive_ok;
            peer.consecutive_fail = 0;
            if (!peer.state.up &&
                peer.consecutive_ok >= options_.up_after) {
                peer.state.up = true;
                ++peer.state.transitions;
            }
        } else {
            ++probes_failed_;
            ++peer.state.probes_failed;
            ++peer.consecutive_fail;
            peer.consecutive_ok = 0;
            peer.state.last_error = v.error;
            if (peer.state.up &&
                peer.consecutive_fail >= options_.down_after) {
                peer.state.up = false;
                ++peer.state.transitions;
            }
        }
    }
}

bool
ClusterTier::isUpLocked(const std::string &node) const
{
    if (node == self_)
        return true;
    for (const Peer &peer : peers_) {
        if (peer.state.node == node)
            return peer.state.up;
    }
    return false;
}

std::string
ClusterTier::ownerFor(const std::string &key) const
{
    const std::vector<std::string> ranked = rendezvousRank(key, members_);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string &node : ranked) {
        if (isUpLocked(node))
            return node;
    }
    return self_; // everyone else down: we are the cluster now
}

bool
ClusterTier::localExecution(const std::string &key)
{
    if (ownerFor(key) != self_)
        return false;
    // The engine asks once per fresh request. Running here although a
    // peer ranks first means the detector marked that peer down: the
    // request failed over to this node without entering resolve().
    if (rendezvousRank(key, members_).front() != self_) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++failovers_;
    }
    return true;
}

std::shared_ptr<const SimResult>
ClusterTier::proxyTo(Peer &peer, const service::SimRequest &request,
                     std::string *error)
{
    Request proxy;
    proxy.method = "POST";
    proxy.target = "/cluster/simulate";
    proxy.headers.emplace_back("Content-Type", "application/json");
    proxy.body = requestToJson(request);

    const service::ClientOutcome outcome = service::requestWithRetry(
        peer.host, peer.port, proxy, options_.proxy_policy);
    if (!outcome.ok) {
        *error = peer.state.node + ": " + outcome.error;
        return nullptr;
    }
    if (outcome.response.status != 200) {
        *error = peer.state.node + ": status " +
                 std::to_string(outcome.response.status);
        return nullptr;
    }
    std::istringstream is(outcome.response.body);
    SimResult result;
    if (!readSimResultText(is, result)) {
        *error = peer.state.node + ": garbled result body";
        return nullptr;
    }
    return std::make_shared<const SimResult>(std::move(result));
}

std::shared_ptr<const SimResult>
ClusterTier::resolve(const service::SimRequest &request,
                     const std::string &key, std::string *error)
{
    const auto start = std::chrono::steady_clock::now();
    const std::vector<std::string> ranked = rendezvousRank(key, members_);
    std::string last_error = "no live peer";
    bool fell_over = false;
    for (const std::string &node : ranked) {
        if (node == self_)
            break; // our own rank reached: execute locally
        Peer *peer = nullptr;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (Peer &p : peers_) {
                if (p.state.node == node && p.state.up)
                    peer = &p;
            }
        }
        if (peer == nullptr) {
            // Marked down: the re-hash skips it. Every node computes
            // the same next candidate, so retries of this key land on
            // one survivor and dedupe in its coalescer/LRU.
            fell_over = true;
            continue;
        }
        // Fault site: per-candidate peer hop. Lets the chaos suite
        // partition or delay a specific proxy leg deterministically,
        // without real networking failures.
        if (const fault::Decision d = fault::at(fault::Site::kPeer)) {
            fault::applyDelay(d);
            if (d.fail) {
                std::lock_guard<std::mutex> lock(mutex_);
                ++proxy_failures_;
                last_error = node + ": injected peer fault";
                fell_over = true;
                continue;
            }
        }
        std::string hop_error;
        if (auto result = proxyTo(*peer, request, &hop_error)) {
            const double us =
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            std::lock_guard<std::mutex> lock(mutex_);
            ++proxied_;
            if (fell_over)
                ++failovers_;
            proxy_latency_stat_.add(us);
            proxy_latency_hist_.add(static_cast<std::uint64_t>(us));
            return result;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        ++proxy_failures_;
        last_error = hop_error;
        fell_over = true;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++failovers_;
    }
    if (error)
        *error = last_error;
    return nullptr;
}

std::optional<Response>
ClusterTier::handle(const Request &request)
{
    if (request.target == "/cluster/simulate") {
        if (request.method != "POST") {
            Response response = jsonResponse(
                405, "{\"status\":\"error\",\"error\":\"method not "
                     "allowed (Allow: POST)\"}");
            response.headers.emplace_back("Allow", "POST");
            return response;
        }
        service::SimRequest sim_request;
        std::string error;
        if (!service::parseSimRequest(request.body, sim_request, error))
            return jsonResponse(400,
                                "{\"status\":\"error\",\"error\":\"" +
                                    jsonEscape(error) + "\"}");
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++remote_simulates_;
        }
        // allow_proxy=false: a proxied request executes here, full
        // stop. Without it two nodes with momentarily divergent peer
        // states could bounce a request between each other.
        const service::SubmitOutcome outcome =
            engine_.submit(sim_request, /*allow_proxy=*/false);
        switch (outcome.status) {
        case service::SubmitStatus::kRejected: {
            Response response = jsonResponse(
                429, "{\"status\":\"rejected\",\"error\":\"" +
                         jsonEscape(outcome.error) + "\"}");
            response.headers.emplace_back("Retry-After", "1");
            return response;
        }
        case service::SubmitStatus::kShutdown:
            return jsonResponse(503,
                                "{\"status\":\"draining\",\"error\":\"" +
                                    jsonEscape(outcome.error) + "\"}");
        case service::SubmitStatus::kFailed:
            return jsonResponse(500,
                                "{\"status\":\"error\",\"error\":\"" +
                                    jsonEscape(outcome.error) + "\"}");
        case service::SubmitStatus::kOk:
            break;
        }
        // The lossless result text format — not JSON — so the
        // requester caches a bit-exact SimResult and cluster results
        // stay byte-identical to solo runs.
        std::ostringstream body;
        writeSimResultText(body, *outcome.result);
        Response response;
        response.status = 200;
        response.headers.emplace_back("Content-Type", "text/plain");
        response.headers.emplace_back(
            "X-Sipre-Cached",
            (outcome.cache_hit || outcome.coalesced) ? "1" : "0");
        response.body = body.str();
        return response;
    }

    if (request.target == "/cluster/status") {
        if (request.method != "GET") {
            Response response = jsonResponse(
                405, "{\"status\":\"error\",\"error\":\"method not "
                     "allowed (Allow: GET)\"}");
            response.headers.emplace_back("Allow", "GET");
            return response;
        }
        const ClusterStats s = stats();
        std::ostringstream body;
        body << "{\"self\":\"" << jsonEscape(self_) << "\",\"members\":"
             << s.members << ",\"peers_up\":" << s.peers_up
             << ",\"proxied\":" << s.proxied
             << ",\"proxy_failures\":" << s.proxy_failures
             << ",\"failovers\":" << s.failovers
             << ",\"remote_simulates\":" << s.remote_simulates
             << ",\"peers\":[";
        for (std::size_t i = 0; i < s.peer_states.size(); ++i) {
            const PeerState &p = s.peer_states[i];
            if (i > 0)
                body << ",";
            body << "{\"node\":\"" << jsonEscape(p.node) << "\",\"up\":"
                 << (p.up ? "true" : "false")
                 << ",\"probes_ok\":" << p.probes_ok
                 << ",\"probes_failed\":" << p.probes_failed
                 << ",\"transitions\":" << p.transitions << "}";
        }
        body << "]}";
        return jsonResponse(200, body.str());
    }

    return std::nullopt;
}

std::optional<std::string>
ClusterTier::readinessReason() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Peer &peer : peers_) {
        if (!peer.state.up)
            return "peer-degraded";
    }
    return std::nullopt;
}

ClusterStats
ClusterTier::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ClusterStats s;
    s.members = members_.size();
    s.proxied = proxied_;
    s.proxy_failures = proxy_failures_;
    s.failovers = failovers_;
    s.remote_simulates = remote_simulates_;
    s.probes_ok = probes_ok_;
    s.probes_failed = probes_failed_;
    for (const Peer &peer : peers_) {
        s.peer_states.push_back(peer.state);
        if (peer.state.up)
            ++s.peers_up;
    }
    s.proxy_latency_count = proxy_latency_stat_.count();
    s.proxy_latency_sum_us = proxy_latency_stat_.sum();
    if (proxy_latency_hist_.total() > 0) {
        s.proxy_latency_p50_us =
            proxy_latency_hist_.percentileUpperBound(0.50);
        s.proxy_latency_p90_us =
            proxy_latency_hist_.percentileUpperBound(0.90);
        s.proxy_latency_p99_us =
            proxy_latency_hist_.percentileUpperBound(0.99);
    }
    return s;
}

std::string
ClusterTier::metricsText() const
{
    const ClusterStats s = stats();
    std::ostringstream body;
    body << "# TYPE sipre_cluster_members gauge\n"
         << "sipre_cluster_members " << s.members << "\n"
         << "# TYPE sipre_cluster_peers_up gauge\n"
         << "sipre_cluster_peers_up " << s.peers_up << "\n"
         << "# TYPE sipre_cluster_peer_up gauge\n";
    for (const PeerState &p : s.peer_states)
        body << "sipre_cluster_peer_up{peer=\"" << p.node << "\"} "
             << (p.up ? 1 : 0) << "\n";
    body << "# TYPE sipre_cluster_peer_transitions_total counter\n";
    for (const PeerState &p : s.peer_states)
        body << "sipre_cluster_peer_transitions_total{peer=\"" << p.node
             << "\"} " << p.transitions << "\n";
    body << "# TYPE sipre_cluster_proxied_total counter\n"
         << "sipre_cluster_proxied_total " << s.proxied << "\n"
         << "# TYPE sipre_cluster_proxy_failures_total counter\n"
         << "sipre_cluster_proxy_failures_total " << s.proxy_failures
         << "\n"
         << "# TYPE sipre_cluster_failovers_total counter\n"
         << "sipre_cluster_failovers_total " << s.failovers << "\n"
         << "# TYPE sipre_cluster_remote_simulates_total counter\n"
         << "sipre_cluster_remote_simulates_total " << s.remote_simulates
         << "\n"
         << "# TYPE sipre_cluster_probes_total counter\n"
         << "sipre_cluster_probes_total{outcome=\"ok\"} " << s.probes_ok
         << "\n"
         << "sipre_cluster_probes_total{outcome=\"fail\"} "
         << s.probes_failed << "\n"
         << "# TYPE sipre_cluster_proxy_latency_us summary\n"
         << "sipre_cluster_proxy_latency_us_count "
         << s.proxy_latency_count << "\n"
         << "sipre_cluster_proxy_latency_us_sum "
         << jsonDouble(s.proxy_latency_sum_us) << "\n"
         << "sipre_cluster_proxy_latency_us{quantile=\"0.5\"} "
         << s.proxy_latency_p50_us << "\n"
         << "sipre_cluster_proxy_latency_us{quantile=\"0.9\"} "
         << s.proxy_latency_p90_us << "\n"
         << "sipre_cluster_proxy_latency_us{quantile=\"0.99\"} "
         << s.proxy_latency_p99_us << "\n";
    return body.str();
}

} // namespace sipre::cluster
