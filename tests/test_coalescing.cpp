/**
 * @file
 * Tests for I-SPY-style prefetch coalescing: plan merging, the ranged
 * target encoding through rewriter/triggers, and the front-end firing
 * one prefetch per covered line.
 */
#include <gtest/gtest.h>

#include "asmdb/pipeline.hpp"
#include "core/simulator.hpp"
#include "frontend/frontend.hpp"
#include "trace/synth/workload.hpp"
#include "trace/trace_stats.hpp"
#include "solo_memory.hpp"

namespace sipre::asmdb
{
namespace
{

AsmdbPlan
planWith(std::vector<std::pair<Addr, Addr>> site_targets)
{
    AsmdbPlan plan;
    for (const auto &[site, target] : site_targets)
        plan.insertions.push_back(Insertion{site, target, 1.0, 1, 1});
    return plan;
}

TEST(Coalesce, MergesAdjacentLinesAtOneSite)
{
    const AsmdbPlan plan = planWith({{0x1000, 0x4000},
                                     {0x1000, 0x4040},
                                     {0x1000, 0x4080},
                                     {0x1000, 0x5000}});
    const AsmdbPlan merged = coalescePlan(plan, 4);
    ASSERT_EQ(merged.insertions.size(), 2u);
    EXPECT_EQ(merged.insertions[0].target_line, 0x4000u);
    EXPECT_EQ(merged.insertions[0].range, 3u);
    EXPECT_EQ(merged.insertions[1].target_line, 0x5000u);
    EXPECT_EQ(merged.insertions[1].range, 1u);
}

TEST(Coalesce, RespectsMaxRange)
{
    AsmdbPlan plan;
    for (int i = 0; i < 6; ++i) {
        plan.insertions.push_back(
            Insertion{0x1000, 0x4000 + Addr(i) * 64, 1.0, 1, 1});
    }
    const AsmdbPlan merged = coalescePlan(plan, 2);
    ASSERT_EQ(merged.insertions.size(), 3u);
    for (const auto &ins : merged.insertions)
        EXPECT_EQ(ins.range, 2u);
}

TEST(Coalesce, DoesNotMergeAcrossSites)
{
    const AsmdbPlan plan =
        planWith({{0x1000, 0x4000}, {0x2000, 0x4040}});
    const AsmdbPlan merged = coalescePlan(plan, 4);
    EXPECT_EQ(merged.insertions.size(), 2u);
}

TEST(Coalesce, TriggersEncodeRange)
{
    AsmdbPlan plan;
    plan.insertions.push_back(Insertion{0x1000, 0x4000, 1.0, 1, 3});
    const SwPrefetchTriggers triggers = buildTriggers(plan);
    ASSERT_EQ(triggers.at(0x1000).size(), 1u);
    EXPECT_EQ(triggers.at(0x1000)[0], 0x4000u | 2u);
}

TEST(Coalesce, FrontendFiresOnePrefetchPerLine)
{
    // Straight-line trace; a ranged trigger on the second instruction.
    Trace trace;
    for (int i = 0; i < 8; ++i) {
        TraceInstruction inst;
        inst.pc = 0x400000 + Addr(i) * 4;
        inst.cls = InstClass::kAlu;
        trace.append(inst);
    }
    SwPrefetchTriggers triggers;
    triggers[0x400004] = {0x700000 | 2}; // lines 0x700000..0x700080

    SoloMemory memory;
    DecodeQueue decode_queue(64);
    DecoupledFrontEnd frontend(FrontendConfig{}, trace, memory,
                               decode_queue);
    frontend.setSwPrefetchTriggers(&triggers);
    for (Cycle c = 0; c < 600; ++c) {
        memory.tick(c);
        frontend.tick(c);
    }
    for (Addr line : {0x700000ull, 0x700040ull, 0x700080ull}) {
        EXPECT_TRUE(memory.l1i().contains(line) ||
                    memory.l1i().mshrPending(line))
            << std::hex << line;
    }
    EXPECT_FALSE(memory.l1i().contains(0x7000c0) ||
                 memory.l1i().mshrPending(0x7000c0));
}

TEST(Coalesce, EndToEndReducesInsertedInstructions)
{
    const auto spec = synth::makeWorkloadSpec(
        "secret_srv12", synth::Archetype::kServer, 0x517e2023ULL);
    const Trace trace = synth::generateTrace(spec, 150'000);
    const SimConfig config = SimConfig::conservative();

    const auto artifacts = runPipeline(trace, config);
    const AsmdbPlan coalesced = coalescePlan(artifacts.plan, 4);
    EXPECT_LE(coalesced.insertions.size(),
              artifacts.plan.insertions.size());

    const CodeLayout layout(coalesced);
    const RewriteResult rewrite =
        rewriteTrace(trace, coalesced, layout);
    std::string err;
    ASSERT_TRUE(validateTrace(rewrite.trace, &err)) << err;
    EXPECT_LE(rewrite.inserted_dynamic,
              artifacts.rewrite.inserted_dynamic);

    // Coverage is preserved: the no-overhead run with the coalesced
    // plan reduces misses about as much as the full plan.
    auto misses_with = [&](const SwPrefetchTriggers &triggers) {
        Simulator sim(config, trace);
        sim.setSwPrefetchTriggers(&triggers);
        return sim.run().l1i.misses;
    };
    const SwPrefetchTriggers full = buildTriggers(artifacts.plan);
    const SwPrefetchTriggers small = buildTriggers(coalesced);
    const auto full_misses = misses_with(full);
    const auto small_misses = misses_with(small);
    EXPECT_LE(small_misses, full_misses + full_misses / 10);
}

} // namespace
} // namespace sipre::asmdb
