/**
 * @file
 * Workload `campaign`: the paper's six standard configurations on a
 * seed-chosen, archetype-stratified subset of the 48 workloads, through
 * the same public calls core/experiment.cpp's campaign makes (trace
 * synthesis, the AsmDB pipeline per baseline, Simulator::run per
 * configuration), with the skip loop on and no campaign cache.
 *
 * The run hands the subset's records round and round to up to four
 * worker threads (never more than nproc): one whole pass, then more
 * until the time is up. Every record's six results are checked against
 * the committed reference-loop digests.
 */
#include <algorithm>
#include <array>
#include <atomic>
#include <iostream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "asmdb/pipeline.hpp"
#include "bench.hpp"
#include "core/simulator.hpp"
#include "spans.hpp"
#include "util/profiler.hpp"

namespace perfbench
{

namespace
{

using sipre::Cycle;
using sipre::ProfComponent;
using sipre::ProfileAccumulator;
using sipre::SimConfig;
using sipre::SimResult;
using sipre::Simulator;

/**
 * Subset size. At the campaign's 2M instructions a record takes seconds,
 * so eight records (every archetype present, one per cost band) make a
 * pass of about fifteen seconds on four workers.
 */
constexpr std::size_t kSubsetSize = 8;

/**
 * The latency tail: a phase runs at least one pass, 8 x 6 = 48
 * simulations, and the 75th percentile is the highest that leaves ten
 * of them beyond it. It is fixed, so a faster host, which runs more
 * records, keeps the same one.
 */
constexpr double kTailQuantile = 0.75;

/**
 * Timed set-ups per run. Each one simulates 2M instructions on every
 * worker, so five, not the default eleven, keep set-up from outweighing
 * the passes.
 */
constexpr int kCampaignSetupRepeats = 5;

constexpr const char *kRunSpans[6] = {
    "core.run.cons",      "core.run.industry",  "core.run.asmdb_cons",
    "core.run.asmdb_cons_ideal", "core.run.asmdb_ind",
    "core.run.asmdb_ind_ideal"};

/** How much instrumentation a phase carries. */
enum class Probe : std::uint8_t {
    kNone,    ///< the measured, untraced loop
    kCycles,  ///< spans + the onCycleEnd cycle counter
    kProfile  ///< spans + cycle counter + the armed CycleProfiler
};

/** Host-time breakdown of one workload record. */
struct RecordTimes
{
    double record_ms = 0.0;
    double synth_ms = 0.0;
    std::array<double, 2> pipeline_ms{};
    std::array<std::uint64_t, 2> insertions{};
    std::array<double, 6> run_ms{};
    std::array<std::uint64_t, 6> total_cycles{};
    std::array<std::uint64_t, 6> executed_cycles{};
    std::uint64_t instructions = 0; ///< retired, profiling runs included
    ProfileAccumulator profile;
};

/** Simulated figures of one workload (identical on every run). */
struct ModelFigures
{
    std::array<double, 6> ipc{};
    double l1i_mpki = 0.0;
    double s2_per_kinsn = 0.0;
};

struct PhaseResult
{
    unsigned threads = 1;
    std::vector<RecordTimes> records;
    std::map<std::string, ModelFigures> model;
};

/** One workload record: its timings and results. */
struct RecordRun
{
    RecordTimes times;
    std::array<SimResult, 6> results;
};

/**
 * Run one workload's six configurations with the core/experiment.cpp
 * recipe; `fast_forward` false selects the reference loop.
 */
RecordRun
runRecord(const sipre::synth::WorkloadSpec &spec, std::size_t instructions,
          std::uint64_t request, Probe probe, bool fast_forward)
{
    RecordRun out;
    RecordTimes &t = out.times;
    Timer record("campaign.record", request);

    sipre::Trace trace;
    {
        Timer timer("trace.synth");
        trace = sipre::synth::generateTrace(spec, instructions);
        t.synth_ms = timer.stop();
    }
    SimConfig cons = SimConfig::conservative();
    SimConfig industry = SimConfig::industry();
    cons.fast_forward = fast_forward;
    industry.fast_forward = fast_forward;

    const auto run = [&](std::size_t config, const SimConfig &sim_config,
                         const sipre::Trace &sim_trace,
                         const sipre::SwPrefetchTriggers *triggers) {
        Simulator sim(sim_config, sim_trace);
        if (triggers != nullptr)
            sim.setSwPrefetchTriggers(triggers);
        std::uint64_t executed = 0;
        Cycle last = 0;
        if (probe != Probe::kNone) {
            sim.onCycleEnd = [&executed, &last](Cycle now) {
                ++executed;
                last = now;
            };
        }
        Timer timer(kRunSpans[config]);
        out.results[config] = sim.run();
        t.run_ms[config] = timer.stop();
        t.total_cycles[config] = last + 1;
        t.executed_cycles[config] = executed;
        t.instructions += out.results[config].instructions;
        if (probe == Probe::kProfile) {
            for (std::size_t c = 0; c < t.profile.slots.size(); ++c) {
                t.profile.slots[c].ns += sim.profile().slots[c].ns;
                t.profile.slots[c].ticks += sim.profile().slots[c].ticks;
            }
        }
    };

    run(0, cons, trace, nullptr);
    run(1, industry, trace, nullptr);
    for (std::size_t base = 0; base < 2; ++base) {
        const SimConfig &config = base == 0 ? cons : industry;
        sipre::asmdb::AsmdbArtifacts art;
        {
            Timer timer("asmdb.pipeline");
            art = sipre::asmdb::runPipeline(trace, config);
            t.pipeline_ms[base] = timer.stop();
        }
        t.insertions[base] = art.plan.insertions.size();
        t.instructions += art.profile_run.instructions;
        run(2 + 2 * base, config, art.rewrite.trace, nullptr);
        run(3 + 2 * base, config, trace, &art.triggers);
    }
    t.record_ms = record.stop();
    return out;
}

/** Check configuration `config`'s result (nothing when `digests` is
 *  null). */
void
checkResult(const std::string &workload, std::size_t config,
            const SimResult &result, const DigestTable *digests,
            Outcome &outcome)
{
    if (digests == nullptr)
        return;
    ++outcome.attempted;
    const std::uint64_t want =
        digests->find("campaign", workload, kCampaignConfigs[config]);
    if (want == 0 || resultDigest(result) != want) {
        outcome.fail("campaign " + workload + " " + kCampaignConfigs[config] +
                     ": result differs from the reference digest");
    }
}

/** Check a record against the digests; return its simulated figures. */
ModelFigures
checkRecord(const std::string &workload,
            const std::array<SimResult, 6> &results,
            const DigestTable *digests, Outcome &outcome)
{
    ModelFigures model;
    for (std::size_t c = 0; c < results.size(); ++c) {
        model.ipc[c] = results[c].ipc();
        checkResult(workload, c, results[c], digests, outcome);
    }
    const SimResult &cons = results[0];
    model.l1i_mpki = cons.l1iMpki();
    model.s2_per_kinsn =
        cons.effective_instructions == 0
            ? 0.0
            : 1000.0 * static_cast<double>(cons.frontend.scenario2_cycles) /
                  static_cast<double>(cons.effective_instructions);
    return model;
}

/** What every phase of a run shares. */
struct Campaign
{
    std::vector<sipre::synth::WorkloadSpec> subset;
    std::size_t instructions = kCampaignInstructions;
    unsigned threads = 1;
    const DigestTable *digests = nullptr;
    std::atomic<std::uint64_t> next_request{1};
};

/**
 * Records on the campaign's workers, handed out in subset order round
 * and round: the first pass whole, then more until `seconds` have gone
 * by. A record in flight when time is up still finishes, so the phase
 * overruns by at most one record, not one pass.
 */
PhaseResult
runPhase(Campaign &campaign, double seconds, Probe probe, Outcome &outcome)
{
    PhaseResult phase;
    phase.threads = campaign.threads;
    const std::size_t n = campaign.subset.size();
    std::mutex merge_mutex;
    std::atomic<std::size_t> next{0};
    const Clock::time_point start = Clock::now();
    const auto worker = [&] {
        Outcome local;
        std::vector<RecordTimes> records;
        std::map<std::string, ModelFigures> model;
        for (;;) {
            const std::size_t i = next++;
            if (i >= n && secondsSince(start) >= seconds)
                break;
            const auto &spec = campaign.subset[i % n];
            RecordRun run =
                runRecord(spec, campaign.instructions,
                          campaign.next_request.fetch_add(1), probe, true);
            model[spec.name] =
                checkRecord(spec.name, run.results, campaign.digests, local);
            records.push_back(run.times);
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        outcome.absorb(local);
        phase.records.insert(phase.records.end(), records.begin(),
                             records.end());
        phase.model.insert(model.begin(), model.end());
    };
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < campaign.threads; ++i)
        pool.emplace_back(worker);
    for (auto &thread : pool)
        thread.join();
    return phase;
}

/**
 * Simulated instructions per host-second with every worker busy: the
 * records' instructions over the time workers spent in them, times the
 * workers. Counting only time inside records leaves out the end of a
 * pass, where workers finishing their last record sit beside idle ones.
 * A pass holds only eight records of unlike cost, so the total, which
 * weighs every workload of the pass, moves less with the seed's choice
 * than a median, which jumps from one workload to another.
 */
double
simMips(const PhaseResult &phase)
{
    double instructions = 0.0, ms = 0.0;
    for (const RecordTimes &r : phase.records) {
        instructions += static_cast<double>(r.instructions);
        ms += r.record_ms;
    }
    return ms > 0 ? instructions / ms * phase.threads / 1e3 : 0.0;
}

/** Workload records per second with every worker busy. */
double
recordsPerSecond(const PhaseResult &phase)
{
    double ms = 0.0;
    for (const RecordTimes &r : phase.records)
        ms += r.record_ms;
    return ms > 0 ? static_cast<double>(phase.records.size()) / ms *
                        phase.threads * 1e3
                  : 0.0;
}

} // namespace

std::array<SimResult, 6>
campaignReferenceResults(const sipre::synth::WorkloadSpec &spec)
{
    return runRecord(spec, kCampaignInstructions, 0, Probe::kNone, false)
        .results;
}

Outcome
runCampaign(const Options &options)
{
    Outcome out;
    Campaign campaign;
    campaign.threads = std::max(1u, std::min(options.nproc, 4u));
    if (options.instructions != 0)
        campaign.instructions = options.instructions;
    const unsigned threads = campaign.threads;
    const std::vector<sipre::synth::WorkloadSpec> &subset = campaign.subset;

    // Set-up, up to the campaign's first results: the reference digests,
    // the suite build, the seeded choice, and on each worker its first
    // workload's trace and checked FTQ-2 base result. Without them the
    // figure would be a sub-millisecond file parse that host noise
    // swamps. The repetitions also warm the host up for the phases.
    DigestTable digests;
    const bool check = campaign.instructions == kCampaignInstructions;
    if (!check) {
        std::cerr << "[campaign] the digests cover " << kCampaignInstructions
                  << " instructions; nothing is checked at "
                  << campaign.instructions << "\n";
    }
    const auto setup = [&] {
        digests = DigestTable();
        std::string error;
        if (!digests.load(options.digests_path, error))
            throw std::runtime_error(error);
        campaign.digests = check ? &digests : nullptr;
        campaign.subset = stratifiedSubset(options.seed, kSubsetSize);
        std::vector<Outcome> round(threads);
        std::vector<std::thread> pool;
        for (unsigned w = 0; w < threads; ++w) {
            pool.emplace_back([&, w] {
                const auto &spec = subset[w % subset.size()];
                const sipre::Trace trace =
                    sipre::synth::generateTrace(spec, campaign.instructions);
                Simulator sim(SimConfig::conservative(), trace);
                checkResult(spec.name, 0, sim.run(), campaign.digests,
                            round[w]);
            });
        }
        for (auto &thread : pool)
            thread.join();
        for (const Outcome &o : round)
            out.absorb(o);
    };
    const double setup_s = medianSetupSeconds(setup, {}, kCampaignSetupRepeats);
    std::cout << "{\"notes\":{\"workload\":\"campaign\",\"threads\":"
              << threads << ",\"nproc\":" << options.nproc
              << ",\"subset\":" << subset.size()
              << ",\"instructions_per_trace\":" << campaign.instructions
              << "}}\n";

    if (!options.trace) {
        const PhaseResult phase =
            runPhase(campaign, options.seconds, Probe::kNone, out);
        // A campaign "request" is one configuration's simulation: the
        // unit a service or sweep would hand out as a shard.
        std::vector<double> run_ms;
        for (const RecordTimes &r : phase.records)
            run_ms.insert(run_ms.end(), r.run_ms.begin(), r.run_ms.end());
        const double tail_ms = quantile(run_ms, kTailQuantile);
        std::cerr << "[campaign] " << phase.records.size() << " records, "
                  << run_ms.size()
                  << " runs; p" << kTailQuantile * 100 << " " << tail_ms
                  << " ms\n";
        const double records_per_s = recordsPerSecond(phase);
        out.add("setup_s", setup_s, "s");
        out.add("sim_mips", simMips(phase), "MIPS");
        out.add("rps", records_per_s, "1/s");
        out.add("req_p50_ms", median(run_ms), "ms");
        out.add("req_p99_ms", tail_ms, "ms");
        out.add("shards_per_s", 6.0 * records_per_s, "1/s");
        out.add("peak_rss_mb", peakRssMb(), "MiB");
        return out;
    }

    // Traced run: an untraced stretch, then spans with the cycle counter,
    // then spans with the CycleProfiler armed as well.
    const PhaseResult plain =
        runPhase(campaign, options.seconds * 0.4, Probe::kNone, out);
    setRecording(true);
    const PhaseResult cycles =
        runPhase(campaign, options.seconds * 0.3, Probe::kCycles, out);
    sipre::CycleProfiler::global().enable();
    const PhaseResult profiled =
        runPhase(campaign, options.seconds * 0.3, Probe::kProfile, out);
    sipre::CycleProfiler::global().disable();
    setRecording(false);

    std::vector<double> synth_ms, pipeline_ms, plan_rewrite_ms, insertions;
    std::array<std::vector<double>, 6> run_ms;
    double record_total = 0.0, synth_total = 0.0, run_total = 0.0;
    double total_cycles = 0.0, executed_cycles = 0.0;
    for (const RecordTimes &r : cycles.records) {
        synth_ms.push_back(r.synth_ms);
        record_total += r.record_ms;
        synth_total += r.synth_ms;
        for (std::size_t b = 0; b < 2; ++b) {
            pipeline_ms.push_back(r.pipeline_ms[b]);
            // The pipeline's profiling pass is a base-config run; what
            // remains is planning and rewriting.
            plan_rewrite_ms.push_back(r.pipeline_ms[b] - r.run_ms[b]);
            insertions.push_back(static_cast<double>(r.insertions[b]));
        }
        for (std::size_t c = 0; c < 6; ++c) {
            run_ms[c].push_back(r.run_ms[c]);
            run_total += r.run_ms[c];
            total_cycles += static_cast<double>(r.total_cycles[c]);
            executed_cycles += static_cast<double>(r.executed_cycles[c]);
        }
    }
    out.add("trace.synth_ms", mean(synth_ms), "ms");
    out.add("trace.share", record_total > 0 ? synth_total / record_total : 0,
            "fraction");
    out.add("asmdb.pipeline_ms", mean(pipeline_ms), "ms");
    out.add("asmdb.plan_rewrite_ms", mean(plan_rewrite_ms), "ms");
    out.add("asmdb.insertions", mean(insertions), "count");
    for (std::size_t c = 0; c < 6; ++c) {
        out.add(std::string("core.run_ms.") + kCampaignConfigs[c],
                mean(run_ms[c]), "ms");
    }
    out.add("core.ns_per_cycle",
            total_cycles > 0 ? run_total * 1e6 / total_cycles : 0, "ns");
    out.add("core.executed_cycle_frac",
            total_cycles > 0 ? executed_cycles / total_cycles : 0,
            "fraction");

    ProfileAccumulator profile;
    double profiled_cycles = 0.0;
    for (const RecordTimes &r : profiled.records) {
        for (std::size_t c = 0; c < profile.slots.size(); ++c)
            profile.slots[c].ns += r.profile.slots[c].ns;
        for (std::size_t c = 0; c < 6; ++c)
            profiled_cycles += static_cast<double>(r.total_cycles[c]);
    }
    const double profiled_ns = static_cast<double>(profile.totalNs());
    for (const ProfComponent c :
         {ProfComponent::kFrontend, ProfComponent::kBackend,
          ProfComponent::kL1i, ProfComponent::kL1d, ProfComponent::kL2,
          ProfComponent::kLlc, ProfComponent::kDram}) {
        const double ns = static_cast<double>(profile[c].ns);
        const std::string name = sipre::profComponentName(c);
        out.add(name + ".ns_per_cycle",
                profiled_cycles > 0 ? ns / profiled_cycles : 0, "ns");
        out.add(name + ".share", profiled_ns > 0 ? ns / profiled_ns : 0,
                "fraction");
    }

    // Every phase runs at least one whole pass, so any one of them
    // holds the whole subset's simulated figures.
    std::array<double, 6> ipc{};
    double mpki = 0.0, s2 = 0.0;
    for (const auto &[name, figures] : plain.model) {
        for (std::size_t c = 0; c < 6; ++c)
            ipc[c] += figures.ipc[c];
        mpki += figures.l1i_mpki;
        s2 += figures.s2_per_kinsn;
    }
    const double n =
        std::max<double>(1.0, static_cast<double>(plain.model.size()));
    for (std::size_t c = 0; c < 6; ++c)
        out.add(std::string("model.ipc.") + kCampaignConfigs[c], ipc[c] / n,
                "IPC");
    out.add("model.l1i_mpki", mpki / n, "MPKI");
    out.add("model.s2_per_kinsn", s2 / n, "cycles/kinsn");

    PhaseResult traced = cycles;
    traced.records.insert(traced.records.end(), profiled.records.begin(),
                          profiled.records.end());
    out.add("trace_obs.overhead_frac", simMips(plain) / simMips(traced) - 1.0,
            "fraction");
    return out;
}

} // namespace perfbench
