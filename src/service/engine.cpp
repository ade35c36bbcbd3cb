#include "service/engine.hpp"

#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>

#include "asmdb/extensions.hpp"
#include "asmdb/pipeline.hpp"
#include "core/simulator.hpp"
#include "multicore/multicore.hpp"
#include "trace/synth/workload.hpp"
#include "trace_obs/recorder.hpp"
#include "util/fault.hpp"
#include "util/fsio.hpp"

namespace sipre::service
{

namespace
{

/** One core's AsmDB pass as the run report keeps it. */
RunReport::CorePlan
corePlan(const asmdb::DistanceDecision &decision,
         const asmdb::AsmdbPlan &plan, const asmdb::RewriteResult &rewrite)
{
    RunReport::CorePlan core;
    core.insertions = plan.insertions.size();
    core.static_bloat = rewrite.staticBloat();
    core.dynamic_bloat = rewrite.dynamicBloat();
    core.tuned_targets = decision.overrides.size();
    core.eval_runs = decision.eval_runs;
    core.min_distance = decision.min_distance;
    return core;
}

} // namespace

std::vector<Trace>
synthesizeTraces(const SimRequest &request)
{
    const std::vector<std::string> mix = request.effectiveMix();
    std::vector<Trace> traces;
    traces.reserve(mix.size());
    for (const std::string &name : mix) {
        const synth::WorkloadSpec *spec = synth::findWorkload(name);
        if (spec == nullptr)
            throw std::runtime_error("unknown workload " + name);
        {
            trace_obs::Span span("trace.synth", "trace");
            span.arg("workload", name);
            traces.push_back(
                synth::generateTrace(*spec, request.instructions));
        }
        // Each core is a distinct process: rebase before any AsmDB
        // profiling so artifacts live in the same address space. Core 0
        // keeps offset 0, so a solo run is the plain trace.
        traces.back().rebase((traces.size() - 1) * kCoreAddressStride);
    }
    return traces;
}

RunReport
runRecipe(const SimRequest &request, const std::vector<Trace> &traces,
          std::uint32_t scenario_window, const SimResult *external_profile)
{
    const SimConfig config = request.toConfig();
    asmdb::AsmdbParams params;
    params.distance_provider = request.distance_provider;
    params.external_profile = external_profile;

    // Artifact storage must outlive the simulator (it holds raw trace
    // pointers); rewritten-trace modes swap each core's trace for its
    // rewritten counterpart. Capacity is reserved up front because the
    // swap stores &artifacts.back().rewrite.trace mid-loop — a grow
    // would dangle every earlier core's pointer.
    std::vector<asmdb::AsmdbArtifacts> artifacts;
    std::vector<asmdb::FeedbackResult> feedback;
    artifacts.reserve(traces.size());
    feedback.reserve(traces.size());
    std::vector<const Trace *> run_traces;
    for (const Trace &t : traces)
        run_traces.push_back(&t);

    RunReport report;
    switch (request.mode) {
    case SimMode::kBase:
        break;
    case SimMode::kAsmdb:
    case SimMode::kNoOverhead:
    case SimMode::kMetadata:
        for (std::size_t i = 0; i < traces.size(); ++i) {
            const asmdb::AsmdbArtifacts &art = artifacts.emplace_back(
                asmdb::runPipeline(traces[i], config, params));
            report.cores.push_back(
                corePlan(art.decision, art.plan, art.rewrite));
            if (request.mode == SimMode::kAsmdb)
                run_traces[i] = &art.rewrite.trace;
        }
        break;
    case SimMode::kFeedback:
        for (std::size_t i = 0; i < traces.size(); ++i) {
            const asmdb::FeedbackResult &fb = feedback.emplace_back(
                asmdb::runFeedbackDirected(traces[i], config, params));
            RunReport::CorePlan &core = report.cores.emplace_back(
                corePlan(fb.decision, fb.plan, fb.rewrite));
            core.insertions_per_round = fb.insertions_per_round;
            core.dropped_insertions = fb.dropped_insertions;
            run_traces[i] = &fb.rewrite.trace;
        }
        break;
    }

    Simulator sim(config, run_traces);
    if (request.mode == SimMode::kNoOverhead) {
        for (std::size_t i = 0; i < artifacts.size(); ++i)
            sim.setSwPrefetchTriggers(&artifacts[i].triggers, i);
    } else if (request.mode == SimMode::kMetadata) {
        for (std::size_t i = 0; i < artifacts.size(); ++i)
            sim.attachMetadataPreloader(
                MetadataPreloadConfig{},
                asmdb::buildMetadataMap(artifacts[i].plan), i);
    }
    if (scenario_window != 0)
        sim.enableScenarioTimeline(scenario_window);
    report.result = sim.run();
    if (request.mode == SimMode::kMetadata) {
        for (std::size_t i = 0; i < report.cores.size(); ++i)
            report.cores[i].preloader = *sim.metadataStats(i);
    }
    report.profile = sim.profile();
    return report;
}

SimResult
runSimRequest(const SimRequest &request)
{
    return runRecipe(request, synthesizeTraces(request)).result;
}

namespace
{

/**
 * Canonical keys for the six standard-campaign configurations of one
 * workload, paired with pointers-to-member into WorkloadRecord. Only
 * base and noovh modes map onto campaign records; asmdb records come
 * from rewritten traces, which the `asmdb` request mode reproduces.
 */
struct CampaignKeyMapping
{
    SimMode mode;
    std::uint32_t ftq;
    SimResult WorkloadRecord::*member;
};

constexpr CampaignKeyMapping kCampaignMappings[] = {
    {SimMode::kBase, 2, &WorkloadRecord::cons},
    {SimMode::kBase, 24, &WorkloadRecord::industry},
    {SimMode::kAsmdb, 2, &WorkloadRecord::asmdb_cons},
    {SimMode::kAsmdb, 24, &WorkloadRecord::asmdb_ind},
    {SimMode::kNoOverhead, 2, &WorkloadRecord::asmdb_cons_ideal},
    {SimMode::kNoOverhead, 24, &WorkloadRecord::asmdb_ind_ideal},
};

} // namespace

SimulationEngine::SimulationEngine(const EngineOptions &options)
    : options_(options), cache_(options.cache_capacity)
{
    if (options_.workers == 0)
        options_.workers = 1;

    if (options_.use_campaign_cache) {
        CampaignResult campaign;
        if (loadCampaign(options_.campaign, campaign)) {
            for (const auto &rec : campaign.workloads) {
                for (const auto &mapping : kCampaignMappings) {
                    SimRequest req;
                    req.workload = rec.name;
                    req.instructions = options_.campaign.instructions;
                    req.ftq_entries = mapping.ftq;
                    req.mode = mapping.mode;
                    disk_cache_.emplace(
                        req.canonicalKey(),
                        std::make_shared<const SimResult>(
                            rec.*mapping.member));
                }
            }
        }
    }

    workers_.reserve(options_.workers);
    for (unsigned i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

SimulationEngine::~SimulationEngine()
{
    shutdown(/*drain=*/true);
}

void
SimulationEngine::recordLatencyLocked(double us)
{
    latency_stat_.add(us);
    latency_hist_.add(static_cast<std::uint64_t>(us));
}

SubmitOutcome
SimulationEngine::waitForJob(const std::shared_ptr<Job> &job, bool coalesced,
                             std::chrono::steady_clock::time_point start)
{
    {
        std::unique_lock<std::mutex> job_lock(job->mutex);
        job->cv.wait(job_lock, [&] { return job->done; });
    }

    SubmitOutcome outcome;
    outcome.coalesced = coalesced;
    const double us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
    outcome.latency_us = us;
    if (job->aborted) {
        outcome.status = SubmitStatus::kShutdown;
        outcome.error = "engine shutting down";
        return outcome;
    }
    if (job->result == nullptr) {
        outcome.status = SubmitStatus::kFailed;
        outcome.error = job->error;
        return outcome;
    }
    outcome.status = SubmitStatus::kOk;
    outcome.result = job->result;
    outcome.proxied = job->proxied;
    std::lock_guard<std::mutex> lock(mutex_);
    recordLatencyLocked(us);
    return outcome;
}

SubmitOutcome
SimulationEngine::submit(const SimRequest &request, bool allow_proxy)
{
    const auto start = std::chrono::steady_clock::now();
    const std::string key = request.canonicalKey();

    trace_obs::Span span("engine.submit", "service");
    span.arg("workload", request.workload);

    std::shared_ptr<Job> job;
    bool coalesced = false;
    bool proxy_here = false;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ++requests_;
        if (stopping_) {
            span.arg("tier", "shutdown");
            SubmitOutcome outcome;
            outcome.status = SubmitStatus::kShutdown;
            outcome.error = "engine shutting down";
            return outcome;
        }

        if (auto hit = cache_.get(key)) {
            ++cache_hits_;
            span.arg("tier", "result-cache");
            SubmitOutcome outcome;
            outcome.status = SubmitStatus::kOk;
            outcome.result = *hit;
            outcome.cache_hit = true;
            outcome.latency_us =
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            recordLatencyLocked(outcome.latency_us);
            return outcome;
        }

        if (const auto it = inflight_.find(key); it != inflight_.end()) {
            ++coalesced_;
            job = it->second;
            coalesced = true;
            span.arg("tier", "coalesced");
        } else if (const auto disk = disk_cache_.find(key);
                   disk != disk_cache_.end()) {
            ++disk_hits_;
            span.arg("tier", "campaign-cache");
            cache_.put(key, disk->second);
            SubmitOutcome outcome;
            outcome.status = SubmitStatus::kOk;
            outcome.result = disk->second;
            outcome.disk_hit = true;
            outcome.latency_us =
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            recordLatencyLocked(outcome.latency_us);
            return outcome;
        } else if (backend_ != nullptr && allow_proxy &&
                   !backend_->localExecution(key)) {
            // Peer-owned key: register the job in inflight_ so
            // identical concurrent submits coalesce onto this one
            // proxy call, but keep it off the worker queue — the
            // remote resolution happens on this thread, outside the
            // engine lock.
            job = std::make_shared<Job>();
            job->key = key;
            job->request = request;
            job->trace_job = trace_obs::currentJob();
            span.arg("tier", "proxied");
            inflight_.emplace(key, job);
            proxy_here = true;
        } else {
            if (queue_.size() >= options_.queue_capacity) {
                ++rejected_;
                span.arg("tier", "rejected");
                SubmitOutcome outcome;
                outcome.status = SubmitStatus::kRejected;
                outcome.error = "queue full (" +
                                std::to_string(queue_.size()) + "/" +
                                std::to_string(options_.queue_capacity) +
                                " requests waiting)";
                return outcome;
            }
            job = std::make_shared<Job>();
            job->key = key;
            job->request = request;
            job->trace_job = trace_obs::currentJob();
            span.arg("tier", "simulated");
            inflight_.emplace(key, job);
            queue_.push_back(job);
            queue_cv_.notify_one();
        }
    }
    if (proxy_here)
        resolveViaBackend(job);
    return waitForJob(job, coalesced, start);
}

void
SimulationEngine::resolveViaBackend(const std::shared_ptr<Job> &job)
{
    std::string error;
    std::shared_ptr<const SimResult> result;
    try {
        result = backend_->resolve(job->request, job->key, &error);
    } catch (const std::exception &e) {
        error = e.what();
        result = nullptr;
    }

    bool abort = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (result != nullptr) {
            ++proxied_;
            cache_.put(job->key, result);
            inflight_.erase(job->key);
        } else if (stopping_) {
            // The workers may already be gone — never park the job on
            // a queue nobody drains.
            inflight_.erase(job->key);
            abort = true;
        } else {
            // Failover: every remote candidate failed, so this node
            // runs the simulation itself. The request was already
            // admitted past the cache tiers, so it joins the worker
            // queue directly instead of bouncing with a 429 — a dead
            // owner costs latency, never a lost request.
            queue_.push_back(job);
            queue_cv_.notify_one();
            return;
        }
    }
    {
        std::lock_guard<std::mutex> job_lock(job->mutex);
        job->done = true;
        job->aborted = abort;
        job->proxied = result != nullptr;
        job->result = std::move(result);
        job->error = std::move(error);
    }
    job->cv.notify_all();
}

void
SimulationEngine::workerLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            queue_cv_.wait(lock,
                           [&] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            job = queue_.front();
            queue_.pop_front();
            ++workers_busy_;
        }

        std::shared_ptr<const SimResult> result;
        std::string error;
        RunReport run;
        bool injected = false;
        // The `engine` fault site models a worker whose simulation is
        // slow (delay) or dies (fail) — the submit()er must still get
        // a definite outcome either way.
        if (const fault::Decision d = fault::at(fault::Site::kEngine)) {
            fault::applyDelay(d);
            injected = d.fail;
        }
        if (injected) {
            error = "injected engine fault";
        } else {
            // Attribute the worker's span to the job the (first)
            // submitter was executing, carried across the queue hop.
            const trace_obs::ScopedJob job_scope(job->trace_job);
            trace_obs::Span span("engine.simulate", "service");
            span.arg("workload", job->request.workload);
            try {
                run = runRecipe(job->request,
                                synthesizeTraces(job->request),
                                options_.scenario_window);
                result =
                    std::make_shared<const SimResult>(std::move(run.result));
            } catch (const std::exception &e) {
                error = e.what();
            }
        }

        {
            std::lock_guard<std::mutex> lock(mutex_);
            --workers_busy_;
            if (result != nullptr) {
                ++sim_runs_;
                if (!result->core_results.empty()) {
                    ++multicore_runs_;
                    const SharedMemStats &sm = result->shared_mem;
                    if (mc_llc_hits_.size() < sm.llc_core_hits.size()) {
                        mc_llc_hits_.resize(sm.llc_core_hits.size(), 0);
                        mc_llc_misses_.resize(sm.llc_core_hits.size(), 0);
                    }
                    for (std::size_t i = 0; i < sm.llc_core_hits.size();
                         ++i) {
                        mc_llc_hits_[i] += sm.llc_core_hits[i];
                        mc_llc_misses_[i] += sm.llc_core_misses[i];
                    }
                    mc_dram_depth_.merge(sm.dram_queue_depth);
                }
                if (!result->hwpf.empty()) {
                    ++hwpf_runs_;
                    for (const HwPrefetchCounters &c : result->hwpf) {
                        HwPrefetchCounters *slot = nullptr;
                        for (HwPrefetchCounters &acc : hwpf_) {
                            if (acc.name == c.name)
                                slot = &acc;
                        }
                        if (slot == nullptr) {
                            hwpf_.emplace_back();
                            hwpf_.back().name = c.name;
                            slot = &hwpf_.back();
                        }
                        slot->merge(c);
                    }
                }
                if (!run.cores.empty()) {
                    ++asmdb_runs_;
                    const char *name = distanceProviderName(
                        job->request.distance_provider);
                    ProviderCounters *slot = nullptr;
                    for (ProviderCounters &acc : providers_) {
                        if (acc.name == name)
                            slot = &acc;
                    }
                    if (slot == nullptr) {
                        providers_.emplace_back();
                        providers_.back().name = name;
                        slot = &providers_.back();
                    }
                    ++slot->runs;
                    for (const RunReport::CorePlan &core : run.cores) {
                        ++slot->pipelines;
                        slot->insertions += core.insertions;
                        slot->tuned_targets += core.tuned_targets;
                        slot->eval_runs += core.eval_runs;
                        slot->distance_sum += core.min_distance;
                    }
                }
                cache_.put(job->key, result);
            } else {
                ++failures_;
            }
            inflight_.erase(job->key);
        }
        {
            std::lock_guard<std::mutex> job_lock(job->mutex);
            job->done = true;
            job->result = std::move(result);
            job->error = std::move(error);
        }
        job->cv.notify_all();
    }
}

void
SimulationEngine::shutdown(bool drain)
{
    std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        if (!drain) {
            // Abort queued-but-not-started jobs so their waiters wake.
            for (const auto &job : queue_) {
                inflight_.erase(job->key);
                {
                    std::lock_guard<std::mutex> job_lock(job->mutex);
                    job->done = true;
                    job->aborted = true;
                }
                job->cv.notify_all();
            }
            queue_.clear();
        }
        queue_cv_.notify_all();
    }
    if (!joined_) {
        for (auto &worker : workers_)
            worker.join();
        joined_ = true;
    }
}

EngineStats
SimulationEngine::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    EngineStats s;
    s.requests = requests_;
    s.sim_runs = sim_runs_;
    s.cache_hits = cache_hits_;
    s.disk_hits = disk_hits_;
    s.coalesced = coalesced_;
    s.proxied = proxied_;
    s.rejected = rejected_;
    s.failures = failures_;
    s.cache_evictions = cache_.evictions();
    s.queue_depth = queue_.size();
    s.inflight = inflight_.size();
    s.workers_busy = workers_busy_;
    s.workers = options_.workers;
    s.queue_capacity = options_.queue_capacity;
    s.cache_entries = cache_.size();
    s.cache_capacity = cache_.capacity();
    s.multicore_runs = multicore_runs_;
    s.hwpf_runs = hwpf_runs_;
    s.hwpf = hwpf_;
    s.asmdb_runs = asmdb_runs_;
    s.providers = providers_;
    s.mc_llc_core_hits = mc_llc_hits_;
    s.mc_llc_core_misses = mc_llc_misses_;
    s.mc_dram_depth_count = mc_dram_depth_.total();
    s.mc_dram_depth_sum = mc_dram_depth_.sum();
    if (mc_dram_depth_.total() > 0) {
        s.mc_dram_depth_p50 = mc_dram_depth_.percentileUpperBound(0.50);
        s.mc_dram_depth_p90 = mc_dram_depth_.percentileUpperBound(0.90);
        s.mc_dram_depth_p99 = mc_dram_depth_.percentileUpperBound(0.99);
    }
    s.latency_count = latency_stat_.count();
    s.latency_sum_us = latency_stat_.sum();
    s.latency_max_us = latency_stat_.max();
    if (latency_hist_.total() > 0) {
        s.latency_p50_us = latency_hist_.percentileUpperBound(0.50);
        s.latency_p90_us = latency_hist_.percentileUpperBound(0.90);
        s.latency_p99_us = latency_hist_.percentileUpperBound(0.99);
    }
    return s;
}

long
SimulationEngine::saveResultCache(const std::string &path) const
{
    // Write-temp + durable commit (fsync file, rename, fsync dir): a
    // flush interrupted by a crash leaves the previous cache file
    // intact instead of a truncated one, and a completed flush
    // survives power loss.
    const std::string tmp = path + ".tmp";
    long written = 0;
    {
        std::ofstream os(tmp);
        if (!os)
            return -1;
        std::lock_guard<std::mutex> lock(mutex_);
        os << "sipre-results 4 " << cache_.size() << '\n';
        cache_.forEach(
            [&os](const std::string &key,
                  const std::shared_ptr<const SimResult> &result) {
                os << key << '\n';
                writeSimResultText(os, *result);
            });
        if (!os) {
            std::remove(tmp.c_str());
            return -1;
        }
        written = static_cast<long>(cache_.size());
    }
    if (!fsio::commitFile(tmp, path))
        return -1;
    return written;
}

long
SimulationEngine::loadResultCache(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return -1;
    std::string magic;
    int version = 0;
    std::size_t count = 0;
    is >> magic >> version >> count;
    // v1 predates the scenario-timeline section; v3 keys predate the
    // distance_provider field. Stale caches reload from scratch rather
    // than misparse or alias old keys onto new requests.
    if (magic != "sipre-results" || version != 4)
        return -1;
    long loaded = 0;
    for (std::size_t i = 0; i < count; ++i) {
        std::string key;
        is >> key;
        SimResult result;
        if (key.empty() || !readSimResultText(is, result))
            break;
        std::lock_guard<std::mutex> lock(mutex_);
        cache_.put(key, std::make_shared<const SimResult>(result));
        ++loaded;
    }
    return loaded;
}

} // namespace sipre::service
