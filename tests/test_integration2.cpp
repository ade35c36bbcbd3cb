/**
 * @file
 * Second round of cross-cutting tests: walker data-address regions,
 * L2 sharing between the instruction and data paths, ring-buffer
 * emplace, and campaign-record arithmetic.
 */
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/simulator.hpp"
#include "trace/synth/workload.hpp"
#include "util/circular_buffer.hpp"
#include "solo_memory.hpp"

namespace sipre
{
namespace
{

TEST(Walker, DataAddressesFallIntoKnownRegions)
{
    const auto spec = synth::makeWorkloadSpec(
        "secret_srv12", synth::Archetype::kServer, 0x517e2023ULL);
    const Trace trace = synth::generateTrace(spec, 50'000);

    constexpr Addr kGlobalBase = 0x10000000ULL;
    constexpr Addr kHeapBase = 0x20000000ULL;
    constexpr Addr kStackBase = 0x7fff00000000ULL;

    std::size_t stack = 0, global = 0, heap = 0;
    for (const auto &inst : trace) {
        if (!inst.isMemory())
            continue;
        if (inst.mem_addr >= kStackBase - (1 << 20))
            ++stack;
        else if (inst.mem_addr >= kHeapBase &&
                 inst.mem_addr < kHeapBase + (1ull << 26))
            ++heap;
        else if (inst.mem_addr >= kGlobalBase &&
                 inst.mem_addr < kGlobalBase + (1 << 20))
            ++global;
        else
            FAIL() << "address outside all regions: " << std::hex
                   << inst.mem_addr;
    }
    EXPECT_GT(stack, 0u);
    EXPECT_GT(global, 0u);
    EXPECT_GT(heap, 0u);
}

TEST(Hierarchy, L2IsSharedBetweenInstructionAndData)
{
    SoloMemory mem;
    Cycle now = 0;
    mem.issueIFetch(0x400000, now);
    mem.issueLoad(0x900000, now);
    for (; now < 2000; ++now) {
        mem.tick(now);
        mem.ifetchCompleted().clear();
        mem.dataCompleted().clear();
    }
    // Both streams missed their L1s and flowed through the same L2.
    EXPECT_EQ(mem.l2().stats().accesses, 2u);
    EXPECT_EQ(mem.l2().stats().misses, 2u);
}

TEST(CircularBuffer, EmplaceConstructsInPlace)
{
    CircularBuffer<std::pair<int, int>> buf(4);
    buf.emplace(1, 2);
    buf.emplace(3, 4);
    EXPECT_EQ(buf.front().first, 1);
    EXPECT_EQ(buf.back().second, 4);
    EXPECT_EQ(buf.size(), 2u);
}

TEST(CampaignRecord, SpeedupPointerArithmetic)
{
    WorkloadRecord rec;
    rec.cons.effective_instructions = 1000;
    rec.cons.cycles = 1000; // IPC 1.0
    rec.industry.effective_instructions = 1000;
    rec.industry.cycles = 500; // IPC 2.0

    CampaignResult result;
    result.workloads.push_back(rec);
    EXPECT_NEAR(result.geomeanSpeedup(&WorkloadRecord::industry), 2.0,
                1e-12);
    EXPECT_NEAR(result.geomeanSpeedup(&WorkloadRecord::cons), 1.0,
                1e-12);
}

TEST(CampaignRecord, SkipsZeroIpcEntries)
{
    WorkloadRecord good;
    good.cons.effective_instructions = 1000;
    good.cons.cycles = 1000;
    good.industry.effective_instructions = 2000;
    good.industry.cycles = 1000;
    WorkloadRecord broken; // all-zero IPCs must be skipped, not crash

    CampaignResult result;
    result.workloads.push_back(good);
    result.workloads.push_back(broken);
    EXPECT_NEAR(result.geomeanSpeedup(&WorkloadRecord::industry), 2.0,
                1e-12);
}

TEST(Simulator, ItlbDisabledByDefault)
{
    const auto spec = synth::makeWorkloadSpec(
        "secret_crypto52", synth::Archetype::kCrypto, 0x517e2023ULL);
    const Trace trace = synth::generateTrace(spec, 30'000);
    Simulator sim(SimConfig::industry(), trace);
    sim.run();
    EXPECT_EQ(sim.frontend().itlb(), nullptr);
    EXPECT_EQ(sim.frontend().stats().itlb_walks, 0u);
}

} // namespace
} // namespace sipre
