/**
 * @file
 * Differential tests for co-runs and for the shared memory controller
 * that the Simulator builds every core over. The guarantees:
 *
 *  1. At one core the controller is a pure pass-through: across the
 *     full standard campaign (all 48 synth workloads through all six
 *     configurations) its port never queues and never grants, which is
 *     what keeps a solo run exact against a private LLC.
 *
 *  2. At every core count the skip loop is bit-identical to the
 *     reference cycle-by-cycle loop, with every feature that attaches
 *     per core, and repeated runs of the same mix are deterministic.
 */
#include <atomic>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "asmdb/extensions.hpp"
#include "asmdb/pipeline.hpp"
#include "core/experiment.hpp"
#include "core/json_io.hpp"
#include "core/result_compare.hpp"
#include "core/simulator.hpp"
#include "multicore/multicore.hpp"
#include "trace/synth/workload.hpp"

namespace sipre
{
namespace
{

class MultiCoreDifferential : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // A stray SIPRE_NO_SKIP would turn every skip run into a
        // reference run and make the skip-vs-loop comparisons vacuous.
        ::unsetenv("SIPRE_NO_SKIP");
    }
};

Trace
makeTrace(const char *name, synth::Archetype archetype,
          std::size_t instructions)
{
    return synth::generateTrace(
        synth::makeWorkloadSpec(name, archetype, 0x517e2023ULL),
        instructions);
}

/**
 * Runs `trace` on one core and expects the controller's port to have
 * passed every request straight to the LLC: nothing queued, nothing
 * granted by the arbiter.
 */
void
expectPassThroughPort(const SimConfig &config, const Trace &trace,
                      const SwPrefetchTriggers *triggers = nullptr)
{
    Simulator sim(config, trace);
    if (triggers != nullptr)
        sim.setSwPrefetchTriggers(triggers);
    sim.run();
    ASSERT_EQ(sim.controller().portStats().size(), 1u);
    const PortStats &port = sim.controller().portStats()[0];
    EXPECT_EQ(port.queued, 0u)
        << "workload " << trace.name() << ", config " << config.label;
    EXPECT_EQ(port.grants, 0u)
        << "workload " << trace.name() << ", config " << config.label;
}

/**
 * Runs `trace` on one core through the skip loop and through the
 * reference loop, applying `attach` to both simulators before run(),
 * and expects bit-identical results.
 */
void
expectSkipMatchesReference(
    SimConfig config, const Trace &trace,
    const std::function<void(Simulator &)> &attach = nullptr)
{
    SimResult results[2];
    for (const bool fast_forward : {false, true}) {
        config.fast_forward = fast_forward;
        Simulator sim(config, trace);
        if (attach)
            attach(sim);
        results[fast_forward] = sim.run();
    }
    EXPECT_EQ(diffSimResults(results[0], results[1]), "")
        << "workload " << trace.name() << ", config " << config.label;
}

// The one-core pass-through guarantee over the standard campaign: the
// six configurations of every synth workload, mirroring
// runOneWorkload() in experiment.cpp including the AsmDB pipeline runs
// against both baselines, never queue at the controller's port.
TEST_F(MultiCoreDifferential, StandardCampaignCores1BitIdentical)
{
    constexpr std::size_t kInstructions = 40'000;
    const auto suite = synth::cvp1LikeSuite(48);

    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t index = next.fetch_add(1);
            if (index >= suite.size())
                return;
            const Trace trace =
                synth::generateTrace(suite[index], kInstructions);
            for (const SimConfig &config :
                 {SimConfig::conservative(), SimConfig::industry()}) {
                expectPassThroughPort(config, trace);
                const auto art = asmdb::runPipeline(trace, config);
                expectPassThroughPort(config, art.rewrite.trace);
                expectPassThroughPort(config, trace, &art.triggers);
            }
        }
    };

    unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    threads = std::min<unsigned>(threads,
                                 static_cast<unsigned>(suite.size()));
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
}

// At one core the skip loop matches the reference cycle-by-cycle loop.
TEST_F(MultiCoreDifferential, Cores1ReferenceLoopAndSkipLoopAgree)
{
    const Trace trace =
        makeTrace("secret_srv12", synth::Archetype::kServer, 120'000);
    expectSkipMatchesReference(SimConfig::industry(), trace);
}

// Feature combinations at one core: metadata preloaders, the iTLB, and
// HW prefetchers all route through the per-core attachment points, and
// the skip loop must match the reference loop with each attached.
TEST_F(MultiCoreDifferential, Cores1FeatureCombinations)
{
    const Trace trace =
        makeTrace("secret_srv12", synth::Archetype::kServer, 120'000);

    SimConfig config = SimConfig::industry();
    config.frontend.itlb = true;
    config.memory.l1i_prefetcher = IPrefetcherKind::kEipLite;
    config.memory.l1d_prefetcher = DPrefetcherKind::kIpStride;
    expectSkipMatchesReference(config, trace);

    const SimConfig industry = SimConfig::industry();
    const auto art = asmdb::runPipeline(trace, industry);
    const auto metadata = asmdb::buildMetadataMap(art.plan);
    expectSkipMatchesReference(industry, trace, [&](Simulator &sim) {
        sim.attachMetadataPreloader(MetadataPreloadConfig{}, metadata);
    });
}

// The hwpf-managed prefetchers wire through per-core attachment points
// (FTQ observer, iTLB, L1-I install); with every kind behind the
// TLB-aware wrapper, the skip loop must match the reference loop.
TEST_F(MultiCoreDifferential, Cores1HwpfPrefetchersMatchSingleCore)
{
    const Trace trace =
        makeTrace("secret_srv12", synth::Archetype::kServer, 120'000);
    for (const auto kind :
         {IPrefetcherKind::kFdip, IPrefetcherKind::kMana,
          IPrefetcherKind::kFdipMana}) {
        SimConfig config = SimConfig::industry();
        config.frontend.itlb = true; // arm the TLB-aware wrapper
        config.memory.l1i_prefetcher = kind;
        expectSkipMatchesReference(config, trace);
    }
}

std::vector<Trace>
makeMixTraces(std::size_t cores)
{
    std::vector<Trace> traces;
    traces.push_back(
        makeTrace("secret_srv12", synth::Archetype::kServer, 60'000));
    if (cores >= 2)
        traces.push_back(makeTrace("secret_int_124",
                                   synth::Archetype::kInteger, 60'000));
    if (cores >= 3)
        traces.push_back(makeTrace("secret_crypto52",
                                   synth::Archetype::kCrypto, 60'000));
    if (cores >= 4)
        traces.push_back(
            makeTrace("secret_srv7", synth::Archetype::kServer, 60'000));
    // Same relocation the real entry points apply: one address range
    // per process, so the shared LLC sees genuine contention rather
    // than the synthesized layouts' constructive aliasing.
    for (std::size_t i = 0; i < traces.size(); ++i)
        traces[i].rebase(i * kCoreAddressStride);
    return traces;
}

SimResult
runMix(const SimConfig &config, const std::vector<Trace> &traces)
{
    std::vector<const Trace *> ptrs;
    for (const Trace &t : traces)
        ptrs.push_back(&t);
    Simulator sim(config, ptrs);
    return sim.run();
}

// Repeated runs of the same heterogeneous mix are bit-identical, at
// both 2 and 4 cores, including every per-core section.
TEST_F(MultiCoreDifferential, MixedRunsAreDeterministic)
{
    for (const std::size_t cores : {2u, 4u}) {
        const auto traces = makeMixTraces(cores);
        const SimConfig config = SimConfig::industry();
        const SimResult a = runMix(config, traces);
        const SimResult b = runMix(config, traces);
        EXPECT_EQ(diffSimResults(a, b), "") << cores << " cores";
        ASSERT_EQ(a.core_results.size(), cores);
        ASSERT_EQ(b.core_results.size(), cores);
    }
}

// The skip loop against the reference loop with several cores: a mix
// under SIPRE_NO_SKIP must be bit-identical to the same mix
// fast-forwarded. At 4 cores the minimum runs over more claims, and the
// cores finish at different cycles.
TEST_F(MultiCoreDifferential, TwoCoreSkipMatchesReferenceLoop)
{
    for (const std::size_t cores : {2u, 4u}) {
        const auto traces = makeMixTraces(cores);
        SimConfig config = SimConfig::industry();

        config.fast_forward = true;
        const SimResult ffw = runMix(config, traces);

        ::setenv("SIPRE_NO_SKIP", "1", 1);
        const SimResult ref = runMix(config, traces);
        ::unsetenv("SIPRE_NO_SKIP");

        EXPECT_EQ(diffSimResults(ref, ffw), "") << cores << " cores";
        ASSERT_EQ(ffw.core_results.size(), cores);
    }
}

// Same skip-vs-loop check with the combined FDIP+MANA configuration:
// the run-ahead walk's event claims and the prefetch drains must not
// perturb the skip loop at cores>1 either.
TEST_F(MultiCoreDifferential, TwoCoreSkipMatchesReferenceWithFdipMana)
{
    const auto traces = makeMixTraces(2);
    SimConfig config = SimConfig::industry();
    config.memory.l1i_prefetcher = IPrefetcherKind::kFdipMana;
    config.frontend.itlb = true;

    config.fast_forward = true;
    const SimResult ffw = runMix(config, traces);

    ::setenv("SIPRE_NO_SKIP", "1", 1);
    const SimResult ref = runMix(config, traces);
    ::unsetenv("SIPRE_NO_SKIP");

    EXPECT_EQ(diffSimResults(ref, ffw), "");
    // Both cores ran the same two-component configuration, so the
    // aggregate carries the merged fdip+mana counter blocks.
    ASSERT_EQ(ffw.hwpf.size(), 2u);
    EXPECT_EQ(ffw.hwpf[0].name, "fdip");
    EXPECT_EQ(ffw.hwpf[1].name, "mana");
}

// Structural invariants of the arbitrated controller: at cores=1 the
// port is a pure pass-through (nothing ever queues), while a 2-core
// co-run on cache-hostile workloads exercises the queue and attributes
// LLC demand traffic to both cores.
TEST_F(MultiCoreDifferential, ControllerContentionAccounting)
{
    {
        const Trace trace =
            makeTrace("secret_srv12", synth::Archetype::kServer, 60'000);
        Simulator sim(SimConfig::industry(), trace);
        sim.run();
        const PortStats &port = sim.controller().portStats()[0];
        EXPECT_EQ(port.queued, 0u);
        EXPECT_EQ(port.grants, 0u);
        EXPECT_GT(port.bypassed, 0u);
    }
    {
        const auto traces = makeMixTraces(2);
        std::vector<const Trace *> ptrs{&traces[0], &traces[1]};
        Simulator sim(SimConfig::industry(), ptrs);
        const SimResult result = sim.run();
        ASSERT_EQ(result.core_results.size(), 2u);
        const auto &hits = result.shared_mem.llc_core_hits;
        const auto &misses = result.shared_mem.llc_core_misses;
        ASSERT_EQ(hits.size(), 2u);
        ASSERT_EQ(misses.size(), 2u);
        EXPECT_GT(hits[0] + misses[0], 0u);
        EXPECT_GT(hits[1] + misses[1], 0u);
        // Per-core demand attribution adds up to the shared LLC's own
        // demand-access counter.
        EXPECT_EQ(hits[0] + misses[0] + hits[1] + misses[1],
                  result.shared_mem.llc.accesses);
        // The aggregate keeps the shared LLC verbatim instead of
        // double-counting the per-core views.
        EXPECT_EQ(result.llc.accesses, result.shared_mem.llc.accesses);
        EXPECT_EQ(result.instructions,
                  result.core_results[0].instructions +
                      result.core_results[1].instructions);
        EXPECT_EQ(result.cycles,
                  std::max(result.core_results[0].cycles,
                           result.core_results[1].cycles));
    }
}

// A multi-core result — per-core sections, shared-memory counters, and
// the DRAM-occupancy histogram — survives the campaign-cache text
// format bit-exactly, and tampering with the multi-core tag rejects
// the record instead of silently loading a single-core shape.
TEST_F(MultiCoreDifferential, ResultTextAndJsonCarryTheSharedState)
{
    const auto traces = makeMixTraces(2);
    const SimResult original = runMix(SimConfig::industry(), traces);
    ASSERT_EQ(original.core_results.size(), 2u);

    std::ostringstream os;
    writeSimResultText(os, original);
    const std::string text = os.str();

    std::istringstream is(text);
    SimResult reloaded;
    ASSERT_TRUE(readSimResultText(is, reloaded));
    EXPECT_EQ(diffSimResults(original, reloaded), "");

    // The diff itself sees the shared state: a flipped per-core LLC
    // counter and a perturbed DRAM-depth histogram are both caught.
    SimResult tampered = reloaded;
    tampered.shared_mem.llc_core_hits[1] += 1;
    EXPECT_NE(diffSimResults(original, tampered), "");
    tampered = reloaded;
    tampered.core_results[1].instructions += 1;
    EXPECT_NE(diffSimResults(original, tampered), "");

    // A garbled multi-core tag rejects the whole record.
    std::string garbled = text;
    const std::size_t tag = garbled.find(" mc ");
    ASSERT_NE(tag, std::string::npos);
    garbled[tag + 1] = 'x';
    std::istringstream bad(garbled);
    SimResult rejected;
    EXPECT_FALSE(readSimResultText(bad, rejected));

    // The JSON shape exposes the same sections and stays parseable.
    const std::string json = simResultToJson(original);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, doc, error)) << error;
    EXPECT_NE(json.find("\"cores\":2"), std::string::npos);
    EXPECT_NE(json.find("\"shared_mem\""), std::string::npos);
    EXPECT_NE(json.find("\"core_results\""), std::string::npos);
    EXPECT_NE(json.find("\"dram_queue_depth\""), std::string::npos);

    // A single-core result keeps the legacy shape: no multi-core keys.
    const Trace solo =
        makeTrace("secret_srv12", synth::Archetype::kServer, 60'000);
    const SimResult single = Simulator(SimConfig::industry(), solo).run();
    const std::string single_json = simResultToJson(single);
    EXPECT_EQ(single_json.find("\"shared_mem\""), std::string::npos);
    EXPECT_EQ(single_json.find("\"core_results\""), std::string::npos);
}

} // namespace
} // namespace sipre
