/**
 * @file
 * Integration tests of the whole simulator: determinism, directional
 * performance properties (FTQ depth, cache size), retirement
 * accounting, and warmup behavior — across all workload archetypes.
 */
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "trace/synth/workload.hpp"
#include "util/profiler.hpp"

namespace sipre
{
namespace
{

Trace
workloadTrace(std::size_t index, std::size_t instructions)
{
    const auto suite = synth::cvp1LikeSuite();
    return synth::generateTrace(suite.at(index), instructions);
}

TEST(Simulator, RetiresExactlyTraceSize)
{
    const Trace trace = workloadTrace(0, 60'000);
    Simulator sim(SimConfig::industry(), trace);
    const SimResult result = sim.run();
    // Post-warmup window: instructions ~= total - warmup (the boundary
    // cycle can retire up to retire_width extra warmup instructions).
    EXPECT_LE(result.instructions, 60'000u - 12'000u);
    EXPECT_GE(result.instructions, 60'000u - 12'000u - 6u);
    EXPECT_GT(result.cycles, 0u);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    const Trace trace = workloadTrace(4, 80'000);
    SimResult a, b;
    {
        Simulator sim(SimConfig::industry(), trace);
        a = sim.run();
    }
    {
        Simulator sim(SimConfig::industry(), trace);
        b = sim.run();
    }
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.frontend.scenario2_cycles, b.frontend.scenario2_cycles);
    EXPECT_EQ(a.l1i.misses, b.l1i.misses);
    EXPECT_EQ(a.branch.cond_mispredictions,
              b.branch.cond_mispredictions);
}

TEST(Simulator, DeeperFtqIsFaster)
{
    const Trace trace = workloadTrace(16, 300'000); // srv archetype
    double cons, ind;
    {
        Simulator sim(SimConfig::conservative(), trace);
        cons = sim.run().ipc();
    }
    {
        Simulator sim(SimConfig::industry(), trace);
        ind = sim.run().ipc();
    }
    EXPECT_GT(ind, cons * 1.05)
        << "24-entry FTQ must clearly outperform the 2-entry FTQ";
}

TEST(Simulator, PerfectL1iIsFaster)
{
    const Trace trace = workloadTrace(16, 200'000);
    double base, perfect;
    {
        Simulator sim(SimConfig::conservative(), trace);
        base = sim.run().ipc();
    }
    {
        SimConfig config = SimConfig::conservative();
        config.memory.l1i.size_bytes = 8 * 1024 * 1024;
        config.memory.l1i.ways = 16;
        Simulator sim(config, trace);
        perfect = sim.run().ipc();
    }
    EXPECT_GT(perfect, base);
}

TEST(Simulator, WarmupShrinksMeasuredWindow)
{
    const Trace trace = workloadTrace(0, 60'000);
    SimConfig with_warmup = SimConfig::industry();
    with_warmup.warmup_fraction = 0.5;
    SimConfig no_warmup = SimConfig::industry();
    no_warmup.warmup_fraction = 0.0;
    SimResult warm, cold;
    {
        Simulator sim(with_warmup, trace);
        warm = sim.run();
    }
    {
        Simulator sim(no_warmup, trace);
        cold = sim.run();
    }
    EXPECT_LE(warm.instructions, 30'000u);
    EXPECT_GE(warm.instructions, 30'000u - 6u);
    EXPECT_EQ(cold.instructions, 60'000u);
    EXPECT_LT(warm.cycles, cold.cycles);
    // Warm window has better IPC than the cold-start-inclusive run.
    EXPECT_GT(warm.ipc(), cold.ipc() * 0.95);
}

TEST(Simulator, ScenarioTaxonomyCoversOccupiedCycles)
{
    const Trace trace = workloadTrace(16, 100'000);
    Simulator sim(SimConfig::industry(), trace);
    const SimResult r = sim.run();
    const auto &f = r.frontend;
    EXPECT_EQ(f.scenario1_cycles + f.scenario2_cycles +
                  f.scenario3_cycles + f.ftq_empty_cycles,
              r.cycles);
}

TEST(Simulator, HeadLatencyExceedsNonHeadOnDeepFtq)
{
    // Paper Fig. 8: entries that stall the head take longer to fetch
    // than entries that complete behind it.
    const Trace trace = workloadTrace(16, 300'000);
    Simulator sim(SimConfig::industry(), trace);
    const SimResult r = sim.run();
    ASSERT_GT(r.frontend.head_fetch_latency.count(), 0u);
    ASSERT_GT(r.frontend.nonhead_fetch_latency.count(), 0u);
    EXPECT_GT(r.frontend.head_fetch_latency.mean(),
              r.frontend.nonhead_fetch_latency.mean());
}

TEST(Simulator, DeepFtqIssuesFewerL1iFetches)
{
    // Paper Sec. V-B: the 24-entry FDP merges more same-line requests
    // and issues fewer L1-I accesses than the 2-entry FDP.
    const Trace trace = workloadTrace(16, 300'000);
    SimResult cons, ind;
    {
        Simulator sim(SimConfig::conservative(), trace);
        cons = sim.run();
    }
    {
        Simulator sim(SimConfig::industry(), trace);
        ind = sim.run();
    }
    EXPECT_LT(ind.frontend.l1i_fetches_issued,
              cons.frontend.l1i_fetches_issued);
    EXPECT_GT(ind.frontend.l1i_fetches_merged,
              cons.frontend.l1i_fetches_merged);
}

TEST(Simulator, HardwarePrefetcherReducesDemandMisses)
{
    const Trace trace = workloadTrace(16, 200'000);
    SimResult base, nl;
    {
        Simulator sim(SimConfig::industry(), trace);
        base = sim.run();
    }
    {
        SimConfig config = SimConfig::industry();
        config.memory.l1i_prefetcher = IPrefetcherKind::kNextLine;
        Simulator sim(config, trace);
        nl = sim.run();
    }
    EXPECT_LT(nl.l1i.misses, base.l1i.misses);
    EXPECT_GT(nl.l1i.prefetch_fills, 0u);
}

TEST(Simulator, MetricHelpersAreConsistent)
{
    const Trace trace = workloadTrace(1, 100'000); // crypto
    Simulator sim(SimConfig::industry(), trace);
    const SimResult r = sim.run();
    EXPECT_NEAR(r.ipc(),
                static_cast<double>(r.effective_instructions) /
                    static_cast<double>(r.cycles),
                1e-12);
    EXPECT_NEAR(r.l1iMpki(),
                1000.0 * static_cast<double>(r.l1i.misses) /
                    static_cast<double>(r.effective_instructions),
                1e-9);
}

class AllArchetypes : public ::testing::TestWithParam<int>
{
};

TEST_P(AllArchetypes, RunsToCompletionOnBothPresets)
{
    const Trace trace =
        workloadTrace(static_cast<std::size_t>(GetParam()), 60'000);
    for (const auto &config :
         {SimConfig::conservative(), SimConfig::industry()}) {
        Simulator sim(config, trace);
        const SimResult r = sim.run();
        EXPECT_GT(r.ipc(), 0.05) << config.label;
        EXPECT_LT(r.ipc(), 6.0) << config.label;
    }
}

INSTANTIATE_TEST_SUITE_P(Sampled, AllArchetypes,
                         ::testing::Values(0, 1, 2, 4, 8, 16, 30, 47));

TEST(Simulator, OracleBranchPredictionRemovesStalls)
{
    const Trace trace = workloadTrace(16, 150'000);
    SimConfig oracle = SimConfig::industry();
    oracle.frontend.oracle_bp = true;
    SimResult base, ideal;
    {
        Simulator sim(SimConfig::industry(), trace);
        base = sim.run();
    }
    {
        Simulator sim(oracle, trace);
        ideal = sim.run();
    }
    EXPECT_EQ(ideal.frontend.mispredict_stalls, 0u);
    EXPECT_EQ(ideal.frontend.btb_miss_stalls, 0u);
    EXPECT_GT(ideal.ipc(), base.ipc());
}

TEST(Simulator, FtqDepthSweepIsMonotonicOverall)
{
    // Not strictly monotonic per step, but depth 16 should beat depth 2
    // and depth 4 should beat depth 2 on a front-end-bound workload.
    const Trace trace = workloadTrace(20, 200'000);
    auto ipc_at = [&](std::uint32_t entries) {
        Simulator sim(SimConfig::withFtqDepth(entries), trace);
        return sim.run().ipc();
    };
    const double d2 = ipc_at(2);
    const double d4 = ipc_at(4);
    const double d16 = ipc_at(16);
    EXPECT_GT(d4, d2 * 0.99);
    EXPECT_GT(d16, d2 * 1.03);
}

// With the profiler armed, a run attributes wall-clock to every
// component slot it ticks, including the shared LLC and DRAM that the
// memory controller ticks on the cores' behalf.
TEST(Simulator, ProfileAttributesSharedLlcAndDram)
{
    const Trace trace = workloadTrace(0, 20'000);
    CycleProfiler::global().enable();
    Simulator sim(SimConfig::industry(), trace);
    sim.run();
    CycleProfiler::global().disable();
    for (const ProfComponent c :
         {ProfComponent::kFrontend, ProfComponent::kBackend,
          ProfComponent::kL1i, ProfComponent::kL2, ProfComponent::kLlc,
          ProfComponent::kDram}) {
        EXPECT_GT(sim.profile()[c].ns, 0u) << profComponentName(c);
        EXPECT_GT(sim.profile()[c].ticks, 0u) << profComponentName(c);
    }
}

} // namespace
} // namespace sipre
