/**
 * @file
 * Tests for the out-of-order back-end: dispatch/issue/retire widths,
 * register dependencies, load handling, branch callbacks, and the
 * ready-bitmap issue select (slot-space wraps, the scheduler window,
 * port-blocked leftovers).
 */
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "backend/backend.hpp"
#include "memory/hierarchy.hpp"
#include "solo_memory.hpp"

namespace sipre
{
namespace
{

struct BackendHarness
{
    explicit BackendHarness(Trace t, BackendConfig config = {})
        : trace(std::move(t)),
          decode_queue(64),
          backend(config, trace, memory, decode_queue)
    {
    }

    /** Feed the whole trace into the decode queue (ready immediately). */
    void
    feedAll()
    {
        for (std::uint64_t i = 0; i < trace.size(); ++i) {
            while (decode_queue.full())
                drain(1);
            decode_queue.push(DecodedUop{i, now});
        }
    }

    void
    drain(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            memory.tick(now);
            backend.tick(now);
            ++now;
        }
    }

    Trace trace;
    SoloMemory memory;
    DecodeQueue decode_queue;
    Backend backend;
    Cycle now = 0;
};

TraceInstruction
alu(Addr pc, RegId dst = kNoReg, RegId src = kNoReg)
{
    TraceInstruction inst;
    inst.pc = pc;
    inst.cls = InstClass::kAlu;
    inst.dst = dst;
    inst.src = {src, kNoReg};
    return inst;
}

TraceInstruction
div(Addr pc, RegId dst)
{
    TraceInstruction inst;
    inst.pc = pc;
    inst.cls = InstClass::kDiv;
    inst.dst = dst;
    return inst;
}

TraceInstruction
load(Addr pc, Addr addr, RegId dst)
{
    TraceInstruction inst;
    inst.pc = pc;
    inst.cls = InstClass::kLoad;
    inst.mem_addr = addr;
    inst.dst = dst;
    return inst;
}

TraceInstruction
mul(Addr pc, RegId dst)
{
    TraceInstruction inst;
    inst.pc = pc;
    inst.cls = InstClass::kMul;
    inst.dst = dst;
    return inst;
}

TraceInstruction
branch(Addr pc, RegId src = kNoReg)
{
    TraceInstruction inst;
    inst.pc = pc;
    inst.cls = InstClass::kCondBranch;
    inst.src = {src, kNoReg};
    return inst;
}

TEST(Backend, RetiresEverything)
{
    Trace trace;
    for (int i = 0; i < 50; ++i)
        trace.append(alu(0x1000 + Addr(i) * 4));
    BackendHarness h(std::move(trace));
    h.feedAll();
    h.drain(200);
    EXPECT_EQ(h.backend.retired(), 50u);
    EXPECT_EQ(h.backend.robOccupancy(), 0u);
}

TEST(Backend, DispatchWidthLimitsIntake)
{
    Trace trace;
    for (int i = 0; i < 12; ++i)
        trace.append(alu(0x1000 + Addr(i) * 4));
    BackendConfig config;
    config.dispatch_width = 6;
    BackendHarness h(std::move(trace), config);
    h.feedAll();
    h.drain(1);
    EXPECT_EQ(h.backend.stats().dispatched, 6u);
    h.drain(1);
    EXPECT_EQ(h.backend.stats().dispatched, 12u);
}

TEST(Backend, DependentWaitsForDivLatency)
{
    Trace trace;
    trace.append(div(0x1000, /*dst=*/5));
    trace.append(alu(0x1004, /*dst=*/6, /*src=*/5));
    BackendConfig config;
    BackendHarness h(std::move(trace), config);
    h.feedAll();
    // The consumer cannot retire before the divide's latency elapses.
    h.drain(config.div_latency - 2);
    EXPECT_LT(h.backend.retired(), 2u);
    h.drain(40);
    EXPECT_EQ(h.backend.retired(), 2u);
}

TEST(Backend, IndependentOpsOverlap)
{
    Trace trace;
    trace.append(div(0x1000, 5));
    trace.append(div(0x1004, 6));
    trace.append(div(0x1008, 7));
    BackendConfig config;
    BackendHarness h(std::move(trace), config);
    h.feedAll();
    h.drain(config.div_latency + 8);
    EXPECT_EQ(h.backend.retired(), 3u)
        << "independent divides issue in parallel";
}

TEST(Backend, LoadCompletionGatesRetire)
{
    Trace trace;
    trace.append(load(0x1000, 0x900000, 5));
    BackendHarness h(std::move(trace));
    h.feedAll();
    h.drain(30);
    EXPECT_EQ(h.backend.retired(), 0u) << "cold load goes to DRAM";
    h.drain(2000);
    EXPECT_EQ(h.backend.retired(), 1u);
}

TEST(Backend, StoresDoNotBlockRetirement)
{
    Trace trace;
    TraceInstruction store;
    store.pc = 0x1000;
    store.cls = InstClass::kStore;
    store.mem_addr = 0x900000;
    store.src = {5, 6};
    trace.append(store);
    BackendHarness h(std::move(trace));
    h.feedAll();
    h.drain(30);
    EXPECT_EQ(h.backend.retired(), 1u)
        << "stores retire without waiting for the hierarchy";
}

TEST(Backend, InOrderRetirement)
{
    // A slow op followed by fast ones: the fast ones finish early but
    // must retire behind the slow one.
    Trace trace;
    trace.append(div(0x1000, 5));
    trace.append(alu(0x1004));
    trace.append(alu(0x1008));
    BackendConfig config;
    BackendHarness h(std::move(trace), config);
    h.feedAll();
    h.drain(5);
    EXPECT_EQ(h.backend.retired(), 0u);
    h.drain(config.div_latency + 8);
    EXPECT_EQ(h.backend.retired(), 3u);
}

TEST(Backend, BranchCallbacksFire)
{
    Trace trace;
    TraceInstruction br;
    br.pc = 0x1000;
    br.cls = InstClass::kCondBranch;
    br.taken = true;
    br.target = 0x2000;
    trace.append(br);
    trace.append(alu(0x2000));

    BackendHarness h(std::move(trace));
    std::vector<std::uint64_t> decoded, executed;
    h.backend.onBranchDecoded = [&](std::uint64_t idx, Cycle) {
        decoded.push_back(idx);
    };
    h.backend.onBranchExecuted = [&](std::uint64_t idx, Cycle) {
        executed.push_back(idx);
    };
    h.feedAll();
    h.drain(50);
    ASSERT_EQ(decoded.size(), 1u);
    ASSERT_EQ(executed.size(), 1u);
    EXPECT_EQ(decoded[0], 0u);
    EXPECT_EQ(executed[0], 0u);
}

TEST(Backend, RetiredSwPrefetchesTracked)
{
    Trace trace;
    TraceInstruction pf;
    pf.pc = 0x1000;
    pf.cls = InstClass::kSwPrefetch;
    pf.target = 0x5000;
    trace.append(pf);
    trace.append(alu(0x1004));
    BackendHarness h(std::move(trace));
    h.feedAll();
    h.drain(50);
    EXPECT_EQ(h.backend.stats().retired, 2u);
    EXPECT_EQ(h.backend.stats().retired_sw_prefetches, 1u);
}

TEST(Backend, DecodeQueueReadyAtRespected)
{
    Trace trace;
    trace.append(alu(0x1000));
    BackendHarness h(std::move(trace));
    h.decode_queue.push(DecodedUop{0, /*ready_at=*/20});
    h.drain(10);
    EXPECT_EQ(h.backend.stats().dispatched, 0u);
    h.drain(30);
    EXPECT_EQ(h.backend.stats().dispatched, 1u);
}

TEST(Backend, ResetStatsKeepsRetiredTotal)
{
    Trace trace;
    for (int i = 0; i < 10; ++i)
        trace.append(alu(0x1000 + Addr(i) * 4));
    BackendHarness h(std::move(trace));
    h.feedAll();
    h.drain(100);
    EXPECT_EQ(h.backend.retired(), 10u);
    h.backend.resetStats();
    EXPECT_EQ(h.backend.stats().retired, 0u);
    EXPECT_EQ(h.backend.retired(), 10u) << "total survives stat reset";
}

TEST(Backend, RobFullBackpressure)
{
    Trace trace;
    // One very slow load followed by many ALUs: the ROB fills up.
    trace.append(load(0x1000, 0x900000, 5));
    for (int i = 0; i < 600; ++i)
        trace.append(alu(0x1004 + Addr(i) * 4));
    BackendConfig config;
    config.rob_size = 64;
    BackendHarness h(std::move(trace), config);
    h.feedAll();
    h.drain(100);
    EXPECT_GT(h.backend.stats().rob_full_cycles, 0u);
    h.drain(3000);
    EXPECT_EQ(h.backend.retired(), 601u);
}

// A 6-entry ROB has an 8-slot space. Five-instruction groups, each
// dispatched into an empty ROB, start at slots 0, 5, 2, 7, 4, 1, 6, 3,
// so most groups wrap the slot space. With one issue per cycle the
// select must pick the oldest ready entry, wrapped or not:
//   +1 div r1 (18) issues, +2 mul r2 (3) issues, +3 the independent
//   branch issues and resolves at +4, +5 the mul's branch issues and
//   resolves at +6, +19 the div's branch issues and resolves at +20.
// Picking by slot number instead of age, or losing the wrapped part
// of the window, moves these cycles.
TEST(Backend, ReadySelectIsOldestFirstAcrossSlotWraps)
{
    constexpr int kGroups = 24;
    constexpr Cycle kGroupCycles = 100;
    Trace trace;
    for (int g = 0; g < kGroups; ++g) {
        const Addr pc = 0x1000 + Addr(g) * 0x20;
        trace.append(div(pc, /*dst=*/1));
        trace.append(branch(pc + 4, /*src=*/1));
        trace.append(mul(pc + 8, /*dst=*/2));
        trace.append(branch(pc + 12, /*src=*/2));
        trace.append(branch(pc + 16));
    }
    BackendConfig config;
    config.rob_size = 6;
    config.issue_width = 1;
    BackendHarness h(std::move(trace), config);
    std::vector<std::pair<std::uint64_t, Cycle>> executed;
    h.backend.onBranchExecuted = [&](std::uint64_t idx, Cycle now) {
        executed.emplace_back(idx, now);
    };

    std::vector<std::pair<std::uint64_t, Cycle>> expected;
    for (std::uint64_t g = 0; g < kGroups; ++g) {
        const Cycle start = h.now;
        for (std::uint64_t i = 0; i < 5; ++i)
            h.decode_queue.push(DecodedUop{g * 5 + i, start});
        h.drain(kGroupCycles);
        expected.emplace_back(g * 5 + 4, start + 4);
        expected.emplace_back(g * 5 + 3, start + 6);
        expected.emplace_back(g * 5 + 1, start + 20);
    }
    EXPECT_EQ(executed, expected);
    EXPECT_EQ(h.backend.retired(), std::uint64_t{kGroups} * 5);
    EXPECT_EQ(h.backend.robOccupancy(), 0u);
}

// The select sees only the oldest sched_window entries: a ready load
// just past the window waits while the head is still executing.
TEST(Backend, ReadyLoadBeyondSchedWindowWaits)
{
    Trace trace;
    trace.append(div(0x1000, /*dst=*/5));
    for (int i = 1; i < 4; ++i)
        trace.append(alu(0x1000 + Addr(i) * 4));
    trace.append(load(0x1010, 0x900000, /*dst=*/6));
    BackendConfig config;
    config.sched_window = 4;
    BackendHarness h(std::move(trace), config);
    h.feedAll();
    h.drain(config.div_latency - 2);
    EXPECT_EQ(h.backend.stats().loads_issued, 0u);
    EXPECT_EQ(h.backend.retired(), 0u) << "the divide still blocks the head";
    h.drain(4);
    EXPECT_EQ(h.backend.stats().loads_issued, 1u)
        << "the load enters the window once the head retires";
    h.drain(2000);
    EXPECT_EQ(h.backend.retired(), 5u);
}

// With one load port, three ready loads issue one per cycle; the two
// left port-blocked keep the back-end ticking every cycle.
TEST(Backend, PortBlockedLoadsIssueOnePerCycle)
{
    Trace trace;
    for (int i = 0; i < 3; ++i)
        trace.append(load(0x1000 + Addr(i) * 4, 0x900000 + Addr(i) * 4096,
                          /*dst=*/RegId(5 + i)));
    BackendConfig config;
    config.load_ports = 1;
    BackendHarness h(std::move(trace), config);
    h.feedAll();
    h.drain(1); // dispatch
    for (std::uint64_t issued = 1; issued <= 3; ++issued) {
        const Cycle now = h.now;
        h.drain(1);
        EXPECT_EQ(h.backend.stats().loads_issued, issued);
        if (issued < 3)
            EXPECT_EQ(h.backend.nextEventCycle(now), now + 1)
                << "a port-blocked load is retried next cycle";
        else
            EXPECT_GT(h.backend.nextEventCycle(now), now + 1)
                << "nothing is left to issue";
    }
}

} // namespace
} // namespace sipre
