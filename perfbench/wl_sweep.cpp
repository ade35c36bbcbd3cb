/**
 * @file
 * Workload `sweep_corun`: persisted sweep jobs through JobManager, each
 * over a seed-chosen stratified set of sixteen workloads crossed with
 * cores {1, 2} and hw_prefetcher {none, fdip}. Every job runs cold
 * on a fresh engine and an empty store, then a fresh JobManager reloads
 * the store; the reloaded record must restore every shard, and every
 * shard result must match the committed service::runSimRequest digest.
 *
 * This is the job layer's write path (the whole record is rewritten on
 * every shard completion) and the only workload that runs the
 * multi-core simulator and the hardware prefetchers.
 */
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>

#include <malloc.h>
#include <unistd.h>

#include "bench.hpp"
#include "core/simulator.hpp"
#include "jobs/job_store.hpp"
#include "jobs/manager.hpp"
#include "jobs/sweep.hpp"
#include "multicore/multicore.hpp"
#include "spans.hpp"

namespace perfbench
{

namespace
{

using namespace sipre;
using sipre::jobs::JobManager;

/** Workloads per job; every job sweeps the whole seeded set, so every
 *  job of a run does the same work and their rates compare. */
constexpr std::size_t kSubsetSize = 16;

/**
 * The shard-latency tail: the measured phase runs at least eight jobs,
 * 8 x 64 = 512 shards, and the 98th percentile is the highest that
 * leaves ten of them beyond it. It is fixed, so a faster host, which
 * runs more jobs, keeps the same one.
 */
constexpr std::size_t kMinJobs = 8;
constexpr double kTailQuantile = 0.98;

struct JobRun
{
    double wall_s = 0.0; ///< submit to terminal state
    std::uint64_t shards = 0;
    std::uint64_t instructions = 0;
    std::vector<double> shard_ms;
    double reload_ms = 0.0;
    std::string record_path;
    std::uint64_t cached_on_resubmit = 0;
};

/** The sweep spec every job submits. */
std::string
jobSpec(const std::vector<synth::WorkloadSpec> &subset,
        std::size_t instructions)
{
    std::string names;
    for (const auto &spec : subset)
        names += (names.empty() ? "\"" : ",\"") + spec.name + "\"";
    return "{\"workloads\":[" + names +
           "],\"instructions\":" + std::to_string(instructions) +
           ",\"cores\":[1,2],\"hw_prefetcher\":[\"none\",\"fdip\"]}";
}

unsigned
workerCount(unsigned nproc)
{
    return std::max(1u, std::min(nproc, 4u));
}

std::unique_ptr<service::SimulationEngine>
makeEngine(unsigned nproc)
{
    service::EngineOptions options;
    options.workers = workerCount(nproc);
    options.queue_capacity = 64;
    return std::make_unique<service::SimulationEngine>(options);
}

std::unique_ptr<JobManager>
makeManager(service::SimulationEngine &engine, const std::string &store,
            unsigned nproc)
{
    jobs::JobManagerOptions options;
    options.store_dir = store;
    options.shard_workers = workerCount(nproc);
    return std::make_unique<JobManager>(engine, options);
}

/**
 * Wait until job `id` is terminal or has `shards` shards done; returns
 * its progress then.
 */
jobs::JobProgress
awaitJob(const JobManager &manager, std::uint64_t id,
         std::size_t shards = SIZE_MAX)
{
    for (;;) {
        const auto progress = manager.progress(id);
        if (!progress)
            throw std::runtime_error("sweep_corun: job vanished");
        if (jobs::jobStateIsTerminal(progress->state) ||
            progress->shards_done >= shards)
            return *progress;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

jobs::SweepSpec
parseSpec(const std::vector<synth::WorkloadSpec> &subset,
          std::size_t instructions)
{
    jobs::SweepSpec spec;
    std::string error;
    if (!jobs::parseSweepSpec(jobSpec(subset, instructions), spec, error))
        throw std::runtime_error("sweep_corun: spec: " + error);
    return spec;
}

/**
 * Check one finished shard against its runSimRequest digest (nothing
 * when `digests` is null).
 */
void
checkShard(const jobs::ShardRecord &shard, const DigestTable *digests,
           Outcome &outcome)
{
    if (digests == nullptr)
        return;
    ++outcome.attempted;
    const std::uint64_t want = digests->find(
        "sweep", shard.request.workload,
        sweepConfigName(shard.request.cores,
                        hwPrefetcherName(shard.request.hw_prefetcher)));
    if (shard.state != jobs::ShardState::kDone || want == 0 ||
        resultDigest(shard.result) != want)
        outcome.fail("sweep_corun: shard " + shard.key +
                     " differs from the runSimRequest digest");
}

JobRun
runJob(const jobs::SweepSpec &spec, const std::string &store,
       unsigned nproc, std::uint64_t request, bool resubmit,
       const DigestTable *digests, Outcome &outcome)
{
    JobRun run;
    std::filesystem::remove_all(store);
    auto engine = makeEngine(nproc);
    std::uint64_t id = 0;
    {
        auto manager = makeManager(*engine, store, nproc);
        Timer timer("jobs.job", request);
        const Clock::time_point t0 = Clock::now();
        const jobs::JobSubmitOutcome submitted = manager->submit(spec);
        if (submitted.status != jobs::JobSubmitStatus::kOk)
            throw std::runtime_error("sweep_corun: submit: " +
                                     submitted.error);
        id = submitted.id;
        const jobs::JobProgress done = awaitJob(*manager, id);
        run.wall_s = secondsSince(t0);
        timer.stop();
        run.shards = done.shards_total;
        ++outcome.attempted;
        if (done.state != jobs::JobState::kCompleted ||
            done.shards_failed != 0 || done.shards_done != done.shards_total)
            outcome.fail("sweep_corun: job " + std::to_string(id) +
                         " did not complete every shard");
    }

    // A fresh manager over the same store must restore every shard.
    Timer reload_timer("jobs.reload", request);
    auto reloaded = makeManager(*engine, store, nproc);
    run.reload_ms = reload_timer.stop();
    const auto progress = reloaded->progress(id);
    ++outcome.attempted;
    if (!progress || progress->state != jobs::JobState::kCompleted ||
        progress->shards_done != run.shards)
        outcome.fail("sweep_corun: reload did not restore every shard");

    Timer verify_timer("jobs.verify", request);
    run.record_path = jobs::jobRecordPath(store, id);
    jobs::JobRecord record;
    if (!jobs::loadJobRecord(run.record_path, record))
        throw std::runtime_error("sweep_corun: unreadable job record");
    for (const jobs::ShardRecord &shard : record.shards) {
        run.instructions += shard.result.instructions;
        run.shard_ms.push_back(shard.latency_us / 1000.0);
        checkShard(shard, digests, outcome);
    }
    verify_timer.stop();

    if (resubmit) {
        // The same sweep again on the warm engine: every shard is
        // served by the engine's result cache.
        const jobs::JobSubmitOutcome again = reloaded->submit(spec);
        if (again.status != jobs::JobSubmitStatus::kOk)
            throw std::runtime_error("sweep_corun: resubmit: " + again.error);
        run.cached_on_resubmit = awaitJob(*reloaded, again.id).shards_cached;
    }
    return run;
}

/** Per-job rates; the run reports their medians, so a host stall that
 *  slows a minority of jobs does not move them. */
struct PhaseResult
{
    std::vector<double> shards_per_s;
    std::vector<double> mips;
    std::vector<double> shard_ms;
    std::vector<double> reload_ms;
    JobRun last;
};

/** Jobs one after another: at least `min_jobs`, then more until
 *  `seconds` have gone by. */
PhaseResult
runPhase(const std::vector<synth::WorkloadSpec> &subset,
         std::size_t instructions, const std::string &store, unsigned nproc,
         double seconds, std::size_t min_jobs, std::size_t &next_job,
         bool resubmit, const DigestTable *digests, Outcome &outcome)
{
    PhaseResult phase;
    const Clock::time_point start = Clock::now();
    do {
        const std::size_t index = next_job++;
        JobRun run = runJob(parseSpec(subset, instructions), store, nproc,
                            index + 1,
                            resubmit, digests, outcome);
        phase.shards_per_s.push_back(static_cast<double>(run.shards) /
                                     run.wall_s);
        phase.mips.push_back(static_cast<double>(run.instructions) /
                             run.wall_s / 1e6);
        phase.shard_ms.insert(phase.shard_ms.end(), run.shard_ms.begin(),
                              run.shard_ms.end());
        phase.reload_ms.push_back(run.reload_ms);
        phase.last = std::move(run);
        // Hand the finished job's freed heap back, as a process per job
        // would, so peak RSS is one job's footprint rather than however
        // much the allocator's arenas have gathered by the time it ends.
        ::malloc_trim(0);
    } while (phase.shards_per_s.size() < min_jobs ||
             secondsSince(start) < seconds);
    return phase;
}

/** Host time and simulated cycles of one direct simulator call. */
template <typename Sim>
SimResult
timedRun(Sim &sim, const char *span, double &ms, double *cycles)
{
    Cycle last = 0;
    if (cycles != nullptr)
        sim.onCycleEnd = [&last](Cycle now) { last = now; };
    Timer timer(span);
    SimResult result = sim.run();
    ms += timer.stop();
    if (cycles != nullptr)
        *cycles += static_cast<double>(last + 1);
    return result;
}

/**
 * The multi-core and hwpf layers, timed by calling the simulators
 * directly on the sweep's own shards (the job path hides them inside
 * the engine's workers).
 */
void
probeSimulators(const std::vector<synth::WorkloadSpec> &subset,
                std::size_t instructions, Outcome &out)
{
    double sim_none_ms = 0, mc_solo_ms = 0, sim_fdip_ms = 0;
    double mc2_ms = 0, mc2_cycles = 0;
    double queued = 0, ports = 0, dram_p90 = 0;
    double issued = 0, useful = 0;
    const std::size_t probes = 3;
    for (std::size_t i = 0; i < probes; ++i) {
        service::SimRequest request;
        request.workload = subset[i].name;
        request.instructions = instructions;
        const SimConfig none = request.toConfig();
        request.hw_prefetcher = IPrefetcherKind::kFdip;
        const SimConfig fdip = request.toConfig();

        Trace trace;
        Trace rebased;
        {
            Timer timer("trace.synth");
            trace = synth::generateTrace(subset[i], instructions);
            rebased = trace;
            rebased.rebase(kCoreAddressStride);
        }
        {
            Simulator sim(none, trace);
            timedRun(sim, "core.run.none", sim_none_ms, nullptr);
        }
        {
            MultiCoreSimulator sim(none, {&trace});
            timedRun(sim, "multicore.run.solo", mc_solo_ms, nullptr);
        }
        {
            Simulator sim(fdip, trace);
            const SimResult r =
                timedRun(sim, "core.run.fdip", sim_fdip_ms, nullptr);
            for (const HwPrefetchCounters &c : r.hwpf) {
                issued += static_cast<double>(c.issued);
                useful += static_cast<double>(c.useful);
            }
        }
        for (const SimConfig *config : {&none, &fdip}) {
            MultiCoreSimulator sim(*config, {&trace, &rebased});
            const SimResult r =
                timedRun(sim, "multicore.run.corun", mc2_ms, &mc2_cycles);
            dram_p90 += static_cast<double>(
                r.shared_mem.dram_queue_depth.percentileUpperBound(0.9));
            for (const auto &port : sim.controller().portStats()) {
                queued += static_cast<double>(port.queued);
                ports += static_cast<double>(port.queued + port.bypassed);
            }
        }
    }
    out.add("multicore.ns_per_cycle",
            mc2_cycles > 0 ? mc2_ms * 1e6 / mc2_cycles : 0, "ns");
    out.add("multicore.solo_overhead",
            sim_none_ms > 0 ? mc_solo_ms / sim_none_ms : 0, "ratio");
    out.add("multicore.dram_queue_p90", dram_p90 / (2.0 * probes),
            "requests");
    out.add("multicore.port_queued_frac", ports > 0 ? queued / ports : 0,
            "fraction");
    out.add("hwpf.run_overhead",
            sim_none_ms > 0 ? sim_fdip_ms / sim_none_ms : 0, "ratio");
    out.add("hwpf.issued", issued / probes, "count");
    out.add("hwpf.accuracy", issued > 0 ? useful / issued : 0, "fraction");
}

} // namespace

Outcome
runSweepCorun(const Options &options)
{
    Outcome out;
    DigestTable table;
    std::string error;
    if (!table.load(options.digests_path, error))
        throw std::runtime_error(error);
    const std::size_t instructions =
        options.instructions != 0 ? options.instructions : kSweepInstructions;
    const DigestTable *digests =
        instructions == kSweepInstructions ? &table : nullptr;
    if (digests == nullptr) {
        std::cerr << "[sweep_corun] the digests cover " << kSweepInstructions
                  << " instructions; nothing is checked at " << instructions
                  << "\n";
    }
    const std::string root =
        options.out_dir + "/sweep-" + std::to_string(::getpid());
    const std::string store = root + "/store";

    const std::vector<synth::WorkloadSpec> subset =
        stratifiedSubset(options.seed, kSubsetSize);
    // Set-up, up to the sweep's first results: the suite build, the
    // seeded choice, engine and job-manager construction over an empty
    // store, the submit, and a finished shard on each shard worker, read
    // back from the store and checked. Without the first round the
    // figure would be thread start-up and a mkdir, which host noise
    // swamps.
    std::unique_ptr<service::SimulationEngine> engine;
    std::unique_ptr<JobManager> manager;
    const double setup_s = medianSetupSeconds(
        [&] {
            const auto chosen = stratifiedSubset(options.seed, kSubsetSize);
            engine = makeEngine(options.nproc);
            manager = makeManager(*engine, store, options.nproc);
            const jobs::JobSubmitOutcome submitted =
                manager->submit(parseSpec(chosen, instructions));
            if (submitted.status != jobs::JobSubmitStatus::kOk)
                throw std::runtime_error("sweep_corun: submit: " +
                                         submitted.error);
            awaitJob(*manager, submitted.id, workerCount(options.nproc));
            jobs::JobRecord record;
            if (!jobs::loadJobRecord(
                    jobs::jobRecordPath(store, submitted.id), record))
                throw std::runtime_error("sweep_corun: unreadable job record");
            std::size_t done = 0;
            for (const jobs::ShardRecord &shard : record.shards) {
                if (shard.state == jobs::ShardState::kDone) {
                    checkShard(shard, digests, out);
                    ++done;
                }
            }
            if (digests != nullptr) {
                ++out.attempted;
                if (done == 0)
                    out.fail("sweep_corun: no finished shard in the store");
            }
        },
        [&] {
            manager.reset();
            engine.reset();
            std::filesystem::remove_all(store);
        });
    std::cout << "{\"notes\":{\"workload\":\"sweep_corun\""
              << ",\"engine_workers\":" << workerCount(options.nproc)
              << ",\"shard_workers\":" << workerCount(options.nproc)
              << ",\"nproc\":" << options.nproc
              << ",\"workloads_per_job\":" << kSubsetSize
              << ",\"shards_per_job\":" << 4 * kSubsetSize
              << ",\"instructions_per_trace\":" << instructions
              << "}}\n";

    std::size_t next_job = 0;
    // Warm-up, checked but not timed.
    runPhase(subset, instructions, store, options.nproc, kWarmupSeconds, 1,
             next_job, false, digests, out);

    if (!options.trace) {
        const PhaseResult phase =
            runPhase(subset, instructions, store, options.nproc,
                     options.seconds, kMinJobs, next_job, false, digests,
                     out);
        std::filesystem::remove_all(root);
        const double tail_ms = quantile(phase.shard_ms, kTailQuantile);
        std::cerr << "[sweep_corun] " << phase.shard_ms.size()
                  << " shards; p" << kTailQuantile * 100 << " " << tail_ms
                  << " ms\n";
        const double shards_per_s = median(phase.shards_per_s);
        out.add("setup_s", setup_s, "s");
        out.add("sim_mips", median(phase.mips), "MIPS");
        out.add("rps", shards_per_s, "1/s");
        out.add("req_p50_ms", median(phase.shard_ms), "ms");
        out.add("req_p99_ms", tail_ms, "ms");
        out.add("shards_per_s", shards_per_s, "1/s");
        out.add("peak_rss_mb", peakRssMb(), "MiB");
        return out;
    }

    const PhaseResult plain =
        runPhase(subset, instructions, store, options.nproc,
                 options.seconds * 0.5, 1, next_job, false, digests, out);
    setRecording(true);
    const PhaseResult traced =
        runPhase(subset, instructions, store, options.nproc,
                 options.seconds * 0.5, 1, next_job, true, digests, out);

    const jobs::SweepSpec spec = parseSpec(subset, instructions);
    constexpr int kExpands = 200;
    double expand_ms = 0.0;
    {
        Timer timer("jobs.expand");
        std::size_t shards = 0;
        for (int i = 0; i < kExpands; ++i)
            shards += jobs::expandSweep(spec).size();
        expand_ms = timer.stop();
        if (shards == 0)
            throw std::runtime_error("sweep_corun: empty expansion");
    }
    jobs::JobRecord record;
    if (!jobs::loadJobRecord(traced.last.record_path, record))
        throw std::runtime_error("sweep_corun: unreadable job record");
    const double record_kb =
        static_cast<double>(
            std::filesystem::file_size(traced.last.record_path)) /
        1024.0;
    std::vector<double> checkpoint_ms;
    const std::string scratch = root + "/checkpoint";
    std::filesystem::create_directories(scratch);
    for (int i = 0; i < 5; ++i) {
        Timer timer("jobs.checkpoint");
        if (!jobs::saveJobRecord(scratch, record))
            throw std::runtime_error("sweep_corun: checkpoint failed");
        checkpoint_ms.push_back(timer.stop());
    }
    probeSimulators(subset, instructions, out);
    setRecording(false);
    std::filesystem::remove_all(root);

    out.add("jobs.expand_us", expand_ms * 1000.0 / kExpands, "us");
    out.add("jobs.checkpoint_ms", median(checkpoint_ms), "ms");
    out.add("jobs.record_kb", record_kb, "KiB");
    out.add("jobs.reload_ms", mean(traced.reload_ms), "ms");
    out.add("jobs.shard_p50_ms", median(traced.shard_ms), "ms");
    out.add("jobs.shards_cached",
            static_cast<double>(traced.last.cached_on_resubmit), "count");
    out.add("trace_obs.overhead_frac",
            median(plain.shards_per_s) / median(traced.shards_per_s) - 1.0,
            "fraction");
    return out;
}

} // namespace perfbench
