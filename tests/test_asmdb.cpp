/**
 * @file
 * Tests for the AsmDB module: CFG reconstruction, insertion planning
 * (distance / window / fanout criteria), code-layout shifting, trace
 * rewriting, and the end-to-end pipeline's miss-reduction property.
 */
#include <unordered_map>

#include <gtest/gtest.h>

#include "asmdb/pipeline.hpp"
#include "core/simulator.hpp"
#include "trace/synth/workload.hpp"
#include "trace/trace_stats.hpp"

namespace sipre::asmdb
{
namespace
{

TraceInstruction
alu(Addr pc)
{
    TraceInstruction inst;
    inst.pc = pc;
    inst.cls = InstClass::kAlu;
    return inst;
}

TraceInstruction
branch(Addr pc, bool taken, Addr target,
       InstClass cls = InstClass::kCondBranch)
{
    TraceInstruction inst;
    inst.pc = pc;
    inst.cls = cls;
    inst.taken = taken;
    inst.addr = target;
    return inst;
}

void
appendRun(Trace &trace, Addr base, int n)
{
    for (int i = 0; i < n; ++i)
        trace.append(alu(base + Addr(i) * 4));
}

// ------------------------------------------------------------------- CFG

TEST(Cfg, SplitsBlocksAtBranchesAndTargets)
{
    // A: 0x1000..0x1008 (branch at 0x1008 -> 0x2000)
    // B: 0x2000..0x2004 (falls through trace end)
    Trace trace;
    appendRun(trace, 0x1000, 2);
    trace.append(branch(0x1008, true, 0x2000));
    appendRun(trace, 0x2000, 2);

    const Cfg cfg = Cfg::build(trace, {});
    ASSERT_EQ(cfg.blocks().size(), 2u);
    EXPECT_EQ(cfg.block(0).start_pc, 0x1000u);
    EXPECT_EQ(cfg.block(0).end_pc, 0x1008u);
    EXPECT_EQ(cfg.block(0).num_instrs, 3u);
    EXPECT_EQ(cfg.block(1).start_pc, 0x2000u);
}

TEST(Cfg, ExecAndEdgeCounts)
{
    // Loop: block A (2 instrs + back branch) executed 3 times, then B.
    Trace trace;
    for (int i = 0; i < 3; ++i) {
        appendRun(trace, 0x1000, 2);
        trace.append(branch(0x1008, i < 2, 0x1000));
    }
    appendRun(trace, 0x100c, 2);

    const Cfg cfg = Cfg::build(trace, {});
    const auto a = cfg.blockAt(0x1000);
    const auto b = cfg.blockAt(0x100c);
    ASSERT_NE(a, Cfg::kNoBlock);
    ASSERT_NE(b, Cfg::kNoBlock);
    EXPECT_EQ(cfg.block(a).exec_count, 3u);
    EXPECT_EQ(cfg.block(b).exec_count, 1u);

    // Self edge A->A twice, A->B once.
    std::uint64_t self_edges = 0, ab_edges = 0;
    for (const auto &[dst, n] : cfg.block(a).succs) {
        if (dst == a)
            self_edges = n;
        if (dst == b)
            ab_edges = n;
    }
    EXPECT_EQ(self_edges, 2u);
    EXPECT_EQ(ab_edges, 1u);
}

TEST(Cfg, MissAttributionToLineBlock)
{
    Trace trace;
    appendRun(trace, 0x1000, 4);
    std::unordered_map<Addr, std::uint64_t> misses{{0x1000, 7}};
    const Cfg cfg = Cfg::build(trace, misses);
    const auto b = cfg.blockForLine(0x1000);
    ASSERT_NE(b, Cfg::kNoBlock);
    EXPECT_EQ(cfg.block(b).misses, 7u);
}

TEST(Cfg, CallBypassEdgesRecorded)
{
    // Caller block ends in a call; callee runs 5 instructions and
    // returns; continuation follows.
    Trace trace;
    appendRun(trace, 0x1000, 2);
    trace.append(branch(0x1008, true, 0x5000, InstClass::kCall));
    appendRun(trace, 0x5000, 4);
    trace.append(
        branch(0x5010, true, 0x100c, InstClass::kReturn));
    appendRun(trace, 0x100c, 2);

    const Cfg cfg = Cfg::build(trace, {});
    const auto cont = cfg.blockAt(0x100c);
    ASSERT_NE(cont, Cfg::kNoBlock);
    const auto site = cfg.blockContaining(0x1008);
    EXPECT_EQ(cfg.block(cont).bypass_pred, site);
    EXPECT_EQ(cfg.block(cont).bypass_len, 5u);
}

TEST(Cfg, BlockContainingCoversAllPcs)
{
    Trace trace;
    appendRun(trace, 0x1000, 3);
    trace.append(branch(0x100c, true, 0x1000));
    const Cfg cfg = Cfg::build(trace, {});
    for (Addr pc : {0x1000u, 0x1004u, 0x1008u, 0x100cu})
        EXPECT_NE(cfg.blockContaining(pc), Cfg::kNoBlock);
    EXPECT_EQ(cfg.blockContaining(0xdead), Cfg::kNoBlock);
}

// --------------------------------------------------------------- planner

/**
 * Build a linear chain of four 16-instruction blocks A->B->C->D,
 * repeated many times via an outer loop, with misses on D's line.
 */
Trace
chainTrace(int repeats)
{
    Trace trace;
    for (int r = 0; r < repeats; ++r) {
        appendRun(trace, 0x1000, 15);
        trace.append(branch(0x103c, true, 0x2000));
        appendRun(trace, 0x2000, 15);
        trace.append(branch(0x203c, true, 0x3000));
        appendRun(trace, 0x3000, 15);
        trace.append(branch(0x303c, true, 0x4000));
        appendRun(trace, 0x4000, 15);
        trace.append(branch(0x403c, r + 1 < repeats, 0x1000));
    }
    return trace;
}

TEST(Planner, RespectsMinimumDistanceAndWindow)
{
    const Trace trace = chainTrace(10);
    std::unordered_map<Addr, std::uint64_t> misses{{0x4000, 10}};
    const Cfg cfg = Cfg::build(trace, misses);

    AsmdbParams params;
    params.min_path_prob = 0.3;
    // IPC 1.0, LLC 30 cycles: min distance 30 instructions, window 120.
    const AsmdbPlan plan = buildPlan(cfg, misses, 1.0, 30, params);
    EXPECT_EQ(plan.min_distance, 30u);
    EXPECT_EQ(plan.window, 120u);
    ASSERT_FALSE(plan.insertions.empty());
    for (const auto &ins : plan.insertions) {
        EXPECT_EQ(ins.target_line, 0x4000u);
        // C ends 16 instructions before D (< min distance): C's end must
        // never be an insertion site; A, B, or D (via the loop back
        // edge, 64 instructions around) are all legal.
        EXPECT_NE(ins.site_pc, 0x303cu)
            << "site must honor the minimum distance";
    }
}

TEST(Planner, FanoutThresholdPrunesUnlikelySites)
{
    // Block X branches 50/50 to Y or Z; Z leads to the miss. A strict
    // threshold (0.9) must reject X as an insertion site for Z's miss.
    Trace trace;
    for (int r = 0; r < 20; ++r) {
        const bool to_z = r % 2 == 0;
        appendRun(trace, 0x1000, 15);
        trace.append(branch(0x103c, to_z, 0x3000));
        if (!to_z) {
            appendRun(trace, 0x1040, 15);
            trace.append(branch(0x107c, true, 0x5000));
        } else {
            appendRun(trace, 0x3000, 15);
            trace.append(branch(0x303c, true, 0x5000));
        }
        appendRun(trace, 0x5000, 15);
        trace.append(branch(0x503c, r + 1 < 20, 0x1000));
    }
    std::unordered_map<Addr, std::uint64_t> misses{{0x3000, 10}};
    const Cfg cfg = Cfg::build(trace, misses);

    AsmdbParams strict;
    strict.min_path_prob = 0.9;
    const AsmdbPlan plan = buildPlan(cfg, misses, 1.0, 10, strict);
    for (const auto &ins : plan.insertions)
        EXPECT_NE(ins.site_pc, 0x103cu)
            << "50% fanout site must be rejected at a 0.9 threshold";

    AsmdbParams loose;
    loose.min_path_prob = 0.3;
    const AsmdbPlan loose_plan = buildPlan(cfg, misses, 1.0, 10, loose);
    EXPECT_GE(loose_plan.insertions.size(), plan.insertions.size());
}

TEST(Planner, EmptyMissesYieldEmptyPlan)
{
    const Trace trace = chainTrace(3);
    const Cfg cfg = Cfg::build(trace, {});
    const AsmdbPlan plan = buildPlan(cfg, {}, 1.0, 30, {});
    EXPECT_TRUE(plan.insertions.empty());
    EXPECT_EQ(plan.total_misses, 0u);
}

TEST(Planner, InsertionsAreSortedAndUnique)
{
    const Trace trace = chainTrace(10);
    std::unordered_map<Addr, std::uint64_t> misses{{0x4000, 10},
                                                   {0x3000, 5}};
    const Cfg cfg = Cfg::build(trace, misses);
    const AsmdbPlan plan = buildPlan(cfg, misses, 1.0, 30, {});
    for (std::size_t i = 1; i < plan.insertions.size(); ++i) {
        const auto &prev = plan.insertions[i - 1];
        const auto &cur = plan.insertions[i];
        EXPECT_TRUE(prev.site_pc < cur.site_pc ||
                    (prev.site_pc == cur.site_pc &&
                     prev.target_line < cur.target_line));
    }
}

// ---------------------------------------------------------------- layout

AsmdbPlan
planWithSites(std::vector<Addr> sites)
{
    AsmdbPlan plan;
    for (Addr site : sites)
        plan.insertions.push_back(Insertion{site, 0x9000, 1.0, 1});
    return plan;
}

TEST(Layout, ShiftsBySitesAtOrBeforePc)
{
    const CodeLayout layout(planWithSites({0x1010, 0x1020}));
    EXPECT_EQ(layout.map(0x1000), 0x1000u);
    EXPECT_EQ(layout.map(0x100c), 0x100cu);
    EXPECT_EQ(layout.map(0x1010), 0x1010u + 4);
    EXPECT_EQ(layout.map(0x1014), 0x1014u + 4);
    EXPECT_EQ(layout.map(0x1020), 0x1020u + 8);
    EXPECT_EQ(layout.map(0x9000), 0x9000u + 8);
}

TEST(Layout, MonotonicMapping)
{
    const CodeLayout layout(
        planWithSites({0x1004, 0x1008, 0x2000, 0x3000}));
    Addr prev = 0;
    for (Addr pc = 0x1000; pc < 0x4000; pc += 4) {
        const Addr mapped = layout.map(pc);
        EXPECT_GT(mapped, prev);
        prev = mapped;
    }
}

TEST(Layout, TotalInsertions)
{
    const CodeLayout layout(planWithSites({0x1000, 0x1000, 0x2000}));
    EXPECT_EQ(layout.totalInsertions(), 3u);
    EXPECT_EQ(layout.map(0x1000), 0x1000u + 8);
}

// -------------------------------------------------------------- rewriter

TEST(Rewriter, InsertsPrefetchBeforeSiteAndStaysValid)
{
    const Trace trace = chainTrace(5);
    AsmdbPlan plan;
    plan.insertions.push_back(Insertion{0x103c, 0x4000, 1.0, 1});
    const CodeLayout layout(plan);
    const RewriteResult result = rewriteTrace(trace, plan, layout);

    std::string err;
    EXPECT_TRUE(validateTrace(result.trace, &err)) << err;
    EXPECT_EQ(result.inserted_static, 1u);
    EXPECT_EQ(result.inserted_dynamic, 5u) << "site executes 5 times";
    EXPECT_EQ(result.trace.size(), trace.size() + 5);

    // The prefetch precedes the (shifted) site instruction and targets
    // the shifted line of 0x4000.
    bool found = false;
    for (std::size_t i = 0; i + 1 < result.trace.size(); ++i) {
        if (result.trace[i].isSwPrefetch()) {
            found = true;
            EXPECT_EQ(result.trace[i + 1].pc, layout.map(0x103c));
            EXPECT_EQ(result.trace[i].addr, layout.mapLine(0x4000));
        }
    }
    EXPECT_TRUE(found);
}

TEST(Rewriter, BloatAccounting)
{
    const Trace trace = chainTrace(5);
    AsmdbPlan plan;
    plan.insertions.push_back(Insertion{0x103c, 0x4000, 1.0, 1});
    plan.insertions.push_back(Insertion{0x203c, 0x4000, 1.0, 1});
    const CodeLayout layout(plan);
    const RewriteResult result = rewriteTrace(trace, plan, layout);
    EXPECT_EQ(result.original_static, 64u);
    EXPECT_NEAR(result.staticBloat(), 2.0 / 64.0, 1e-12);
    EXPECT_NEAR(result.dynamicBloat(),
                static_cast<double>(result.inserted_dynamic) /
                    static_cast<double>(trace.size()),
                1e-12);
}

TEST(Rewriter, JumpTargetsRemapped)
{
    const Trace trace = chainTrace(3);
    AsmdbPlan plan;
    plan.insertions.push_back(Insertion{0x2000, 0x4000, 1.0, 1});
    const CodeLayout layout(plan);
    const RewriteResult result = rewriteTrace(trace, plan, layout);
    std::string err;
    EXPECT_TRUE(validateTrace(result.trace, &err)) << err;
    for (std::size_t i = 0; i < result.trace.size(); ++i) {
        const auto &inst = result.trace[i];
        if (inst.isBranch() && inst.taken &&
            i + 1 < result.trace.size()) {
            EXPECT_EQ(result.trace[i + 1].pc, inst.addr);
        }
    }

    // A not-taken execution's target moves too: in a real rewrite each
    // executed direct branch carries one target across its executions.
    for (const char *name : {"secret_srv12", "secret_int_124"}) {
        const Trace program =
            synth::generateTrace(*synth::findWorkload(name), 200'000);
        const Trace rewritten =
            runPipeline(program, SimConfig::conservative()).rewrite.trace;
        std::unordered_map<Addr, Addr> target_of;
        std::size_t direct = 0;
        for (std::size_t i = 0; i < rewritten.size(); ++i) {
            const TraceInstruction inst = rewritten[i];
            if (inst.cls != InstClass::kCondBranch &&
                inst.cls != InstClass::kDirectJump &&
                inst.cls != InstClass::kCall)
                continue;
            ++direct;
            const auto it = target_of.emplace(inst.pc, inst.addr).first;
            if (it->second != inst.addr) {
                ADD_FAILURE() << name << ": the branch at 0x" << std::hex
                              << inst.pc << " has two targets";
                break;
            }
        }
        EXPECT_GT(direct, 0u) << name;
    }
}

// Two prefetches at each of three sites execute 30 times in a
// 320-instruction trace, more than a sixteenth of it: the rewritten
// trace must still be allocated once, at its exact size.
TEST(Rewriter, OutputIsAllocatedOnce)
{
    const Trace trace = chainTrace(5);
    AsmdbPlan plan;
    for (const Addr site : {Addr{0x103c}, Addr{0x203c}, Addr{0x303c}}) {
        plan.insertions.push_back(Insertion{site, 0x4000, 1.0, 1});
        plan.insertions.push_back(Insertion{site, 0x5000, 1.0, 1});
    }
    const CodeLayout layout(plan);
    const RewriteResult result = rewriteTrace(trace, plan, layout);
    ASSERT_GT(result.inserted_dynamic, trace.size() / 16);
    EXPECT_EQ(result.trace.size(), trace.size() + result.inserted_dynamic);
    EXPECT_EQ(result.trace.capacity(), result.trace.size());
    EXPECT_EQ(result.trace.statics().capacity(),
              result.trace.statics().size());
}

TEST(Rewriter, TriggerMapMirrorsPlan)
{
    AsmdbPlan plan;
    plan.insertions.push_back(Insertion{0x103c, 0x4000, 1.0, 1});
    plan.insertions.push_back(Insertion{0x103c, 0x5000, 1.0, 1});
    plan.insertions.push_back(Insertion{0x203c, 0x4000, 1.0, 1});
    const SwPrefetchTriggers triggers = buildTriggers(plan);
    ASSERT_EQ(triggers.size(), 2u);
    EXPECT_EQ(triggers.at(0x103c).size(), 2u);
    EXPECT_EQ(triggers.at(0x203c).size(), 1u);
}

// ------------------------------------------------------------- pipeline

TEST(Pipeline, EndToEndReducesMisses)
{
    const auto spec = synth::makeWorkloadSpec(
        "secret_srv12", synth::Archetype::kServer, 0x517e2023ULL);
    const Trace trace = synth::generateTrace(spec, 250'000);
    const SimConfig config = SimConfig::conservative();

    const AsmdbArtifacts artifacts = runPipeline(trace, config);
    EXPECT_GT(artifacts.plan.insertions.size(), 0u);
    EXPECT_GT(artifacts.plan.total_misses, 0u);
    EXPECT_GE(artifacts.plan.total_misses,
              artifacts.plan.targeted_misses);

    std::string err;
    ASSERT_TRUE(validateTrace(artifacts.rewrite.trace, &err)) << err;

    SimResult base, ideal;
    {
        Simulator sim(config, trace);
        base = sim.run();
    }
    {
        Simulator sim(config, trace);
        sim.setSwPrefetchTriggers(&artifacts.triggers);
        ideal = sim.run();
    }
    EXPECT_LT(ideal.l1i.misses, base.l1i.misses)
        << "no-overhead AsmDB must reduce L1-I demand misses";
    EXPECT_GE(ideal.ipc(), base.ipc())
        << "no-overhead AsmDB must not hurt";
}

TEST(Pipeline, RewrittenTraceKeepsOriginalInstructionCount)
{
    const auto spec = synth::makeWorkloadSpec(
        "secret_int_124", synth::Archetype::kInteger, 0x517e2023ULL);
    const Trace trace = synth::generateTrace(spec, 120'000);
    const AsmdbArtifacts artifacts =
        runPipeline(trace, SimConfig::conservative());
    EXPECT_EQ(artifacts.rewrite.trace.size(),
              trace.size() + artifacts.rewrite.inserted_dynamic);
    const TraceStats stats = computeTraceStats(artifacts.rewrite.trace);
    EXPECT_EQ(stats.sw_prefetches, artifacts.rewrite.inserted_dynamic);
}

} // namespace
} // namespace sipre::asmdb
