/**
 * @file
 * Tests for the decoupled front-end: FTQ entry/block formation, line
 * merging, in-order delivery, stall/resume machinery, scenario
 * classification, and software-prefetch triggering at pre-decode.
 */
#include <gtest/gtest.h>

#include "frontend/frontend.hpp"
#include "memory/hierarchy.hpp"
#include "solo_memory.hpp"

namespace sipre
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

/** Straight-line code: n ALU instructions from base. */
Trace
straightLine(Addr base, int n)
{
    Trace trace;
    for (int i = 0; i < n; ++i)
        trace.append(alu(base + Addr(i) * 4));
    return trace;
}

struct FrontEndHarness
{
    explicit FrontEndHarness(Trace t, FrontendConfig config = {})
        : trace(std::move(t)),
          decode_queue(64),
          frontend(config, trace, memory, decode_queue)
    {
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            memory.tick(now);
            frontend.tick(now);
            ++now;
        }
    }

    /** Drain everything the front-end delivers, like a perfect backend. */
    std::size_t
    drainDelivered()
    {
        std::size_t n = 0;
        while (!decode_queue.empty()) {
            decode_queue.pop();
            ++n;
        }
        return n;
    }

    Trace trace;
    SoloMemory memory;
    DecodeQueue decode_queue;
    DecoupledFrontEnd frontend;
    Cycle now = 0;
};

// -------------------------------------------------------- block formation

TEST(Frontend, BlocksCapAtEightInstructions)
{
    FrontEndHarness h(straightLine(0x400000, 20));
    h.run(300);
    // 20 straight-line instructions = blocks of 8+8+4.
    EXPECT_EQ(h.frontend.stats().blocks_allocated, 3u);
    EXPECT_EQ(h.frontend.stats().instructions_delivered, 20u);
}

TEST(Frontend, BlocksEndAtBranches)
{
    Trace trace;
    trace.append(alu(0x400000));
    trace.append(alu(0x400004));
    trace.append(branch(0x400008, true, 0x400100));
    trace.append(alu(0x400100));
    trace.append(branch(0x400104, true, 0x400000 + 0x200));
    trace.append(alu(0x400200));
    FrontEndHarness h(trace);
    h.run(2000);
    EXPECT_EQ(h.frontend.stats().blocks_allocated, 3u);
    EXPECT_TRUE(h.frontend.done());
}

TEST(Frontend, DeliversInProgramOrder)
{
    FrontEndHarness h(straightLine(0x400000, 12));
    h.run(300);
    std::uint64_t expected = 0;
    while (!h.decode_queue.empty()) {
        EXPECT_EQ(h.decode_queue.pop().trace_index, expected);
        ++expected;
    }
    EXPECT_EQ(expected, 12u);
}

TEST(Frontend, DecodeLatencyStampsReadyAt)
{
    FrontendConfig config;
    config.decode_latency = 7;
    FrontEndHarness h(straightLine(0x400000, 4), config);
    h.run(300);
    ASSERT_FALSE(h.decode_queue.empty());
    const DecodedUop uop = h.decode_queue.pop();
    EXPECT_GE(uop.ready_at, 7u);
}

// ------------------------------------------------------------ line merge

TEST(Frontend, SameLineEntriesMergeL1iRequests)
{
    // 16 four-byte instructions fit one 64B line: two FTQ blocks share
    // one line and must produce a single L1-I fetch.
    FrontEndHarness h(straightLine(0x400000, 16));
    h.run(300);
    EXPECT_EQ(h.frontend.stats().l1i_fetches_issued, 1u);
    EXPECT_EQ(h.frontend.stats().l1i_fetches_merged, 1u);
}

TEST(Frontend, StraddlingBlockFetchesTwoLines)
{
    // One block crossing a line boundary needs both lines.
    FrontEndHarness h(straightLine(0x400000 + 60, 8));
    h.run(300);
    EXPECT_EQ(h.frontend.stats().l1i_fetches_issued, 2u);
}

// --------------------------------------------------------------- stalls

TEST(Frontend, BtbMissTakenStallsAndPfcResumes)
{
    Trace trace;
    trace.append(alu(0x400000));
    trace.append(branch(0x400004, true, 0x400100,
                        InstClass::kDirectJump));
    for (int i = 0; i < 4; ++i)
        trace.append(alu(0x400100 + Addr(i) * 4));
    FrontendConfig config;
    config.pfc = true;
    FrontEndHarness h(trace, config);
    h.run(2000);
    EXPECT_EQ(h.frontend.stats().btb_miss_stalls, 1u);
    EXPECT_EQ(h.frontend.stats().pfc_resumes, 1u);
    EXPECT_TRUE(h.frontend.done());
}

TEST(Frontend, WithoutPfcBtbMissWaitsForDecodeSignal)
{
    Trace trace;
    trace.append(branch(0x400000, true, 0x400100,
                        InstClass::kDirectJump));
    trace.append(alu(0x400100));
    FrontendConfig config;
    config.pfc = false;
    FrontEndHarness h(trace, config);
    h.run(1000);
    EXPECT_FALSE(h.frontend.done()) << "stalled until decode notifies";
    h.frontend.onBranchDecoded(0, h.now);
    h.run(500);
    EXPECT_TRUE(h.frontend.done());
}

TEST(Frontend, IndirectBtbMissWaitsForExecution)
{
    Trace trace;
    trace.append(branch(0x400000, true, 0x400100,
                        InstClass::kIndirectJump));
    trace.append(alu(0x400100));
    FrontEndHarness h(trace); // pfc on, but target unknown at decode
    h.run(1000);
    EXPECT_FALSE(h.frontend.done());
    h.frontend.onBranchExecuted(0, h.now);
    h.run(500);
    EXPECT_TRUE(h.frontend.done());
}

TEST(Frontend, MispredictStallsUntilExecuted)
{
    // Warm the BTB with a taken conditional, then run it not-taken: the
    // (warmed, taken-biased) predictor mispredicts and fetch stalls.
    Trace trace;
    for (int rep = 0; rep < 12; ++rep) {
        trace.append(branch(0x400000, true, 0x400000));
    }
    trace.append(branch(0x400000, false, 0x400000));
    trace.append(alu(0x400004));
    FrontEndHarness h(trace);
    for (int step = 0; step < 40; ++step) {
        h.run(50);
        // Resolve every branch the moment it is delivered, like an
        // eager backend.
        while (!h.decode_queue.empty()) {
            const auto uop = h.decode_queue.pop();
            if (h.trace[uop.trace_index].isBranch())
                h.frontend.onBranchExecuted(uop.trace_index, h.now);
        }
    }
    EXPECT_TRUE(h.frontend.done());
    EXPECT_GE(h.frontend.stats().mispredict_stalls, 1u);
}

// ------------------------------------------------- scenario classification

TEST(Frontend, ScenarioCountersPartitionOccupiedCycles)
{
    FrontEndHarness h(straightLine(0x400000, 64));
    h.run(400);
    const auto &s = h.frontend.stats();
    EXPECT_EQ(s.scenario1_cycles + s.scenario2_cycles +
                  s.scenario3_cycles + s.ftq_empty_cycles,
              400u);
}

TEST(Frontend, ConservativeFtqSeesHeadStalls)
{
    FrontendConfig config;
    config.ftq_entries = 2;
    FrontEndHarness h(straightLine(0x400000, 256), config);
    h.run(1500);
    EXPECT_GT(h.frontend.stats().head_stall_cycles, 0u);
}

TEST(Frontend, WaitingAndPartialEventsAccumulate)
{
    FrontendConfig config;
    config.ftq_entries = 2;
    // Straight-line code spanning many lines: entries routinely reach
    // the head before their fetch completes (Scenario 3 signature).
    FrontEndHarness h(straightLine(0x400000, 512), config);
    h.run(4000);
    EXPECT_GT(h.frontend.stats().partial_head_events, 0u);
}

// --------------------------------------------------------- sw prefetches

TEST(Frontend, SwPrefetchInstructionFiresAtPredecode)
{
    Trace trace;
    trace.append(alu(0x400000));
    TraceInstruction pf;
    pf.pc = 0x400004;
    pf.cls = InstClass::kSwPrefetch;
    pf.addr = 0x700000;
    trace.append(pf);
    trace.append(alu(0x400008));
    FrontEndHarness h(trace);
    h.run(500);
    EXPECT_EQ(h.frontend.stats().sw_prefetches_triggered, 1u);
    EXPECT_TRUE(h.memory.l1i().contains(0x700000) ||
                h.memory.l1i().mshrPending(0x700000));
}

TEST(Frontend, TriggerMapFiresWithoutInsertedInstructions)
{
    Trace trace = straightLine(0x400000, 8);
    SwPrefetchTriggers triggers;
    triggers[0x400004] = {0x700000, 0x700040};
    FrontEndHarness h(trace);
    h.frontend.setSwPrefetchTriggers(&triggers);
    h.run(500);
    EXPECT_EQ(h.frontend.stats().sw_prefetches_triggered, 2u);
}

// ------------------------------------------------------------ wrong path

TEST(Frontend, WrongPathPrefetchesDuringStall)
{
    Trace trace;
    trace.append(branch(0x400000, true, 0x400100,
                        InstClass::kIndirectJump));
    for (int i = 0; i < 4; ++i)
        trace.append(alu(0x400100 + Addr(i) * 4));
    FrontendConfig config;
    config.wrong_path_fetch = true;
    FrontEndHarness h(trace, config);
    h.run(400); // stalled on the indirect BTB miss the whole time
    EXPECT_GT(h.frontend.stats().wrong_path_prefetches, 0u);
    h.frontend.onBranchExecuted(0, h.now);
    h.run(400);
    EXPECT_TRUE(h.frontend.done());
}

TEST(Frontend, WrongPathDisabledIssuesNone)
{
    Trace trace;
    trace.append(branch(0x400000, true, 0x400100,
                        InstClass::kIndirectJump));
    trace.append(alu(0x400100));
    FrontendConfig config;
    config.wrong_path_fetch = false;
    FrontEndHarness h(trace, config);
    h.run(400);
    EXPECT_EQ(h.frontend.stats().wrong_path_prefetches, 0u);
}

// ----------------------------------------------------------- reset stats

TEST(Frontend, ResetStatsClearsCounters)
{
    FrontEndHarness h(straightLine(0x400000, 64));
    h.run(200);
    EXPECT_GT(h.frontend.stats().blocks_allocated, 0u);
    h.frontend.resetStats();
    EXPECT_EQ(h.frontend.stats().blocks_allocated, 0u);
    EXPECT_EQ(h.frontend.stats().head_fetch_latency.count(), 0u);
}

} // namespace
} // namespace sipre
