/**
 * @file
 * Tests for the instruction TLB and the IP-stride data prefetcher,
 * plus their integration into the front-end / hierarchy.
 */
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "memory/dprefetcher.hpp"
#include "memory/tlb.hpp"
#include "trace/synth/workload.hpp"
#include "solo_memory.hpp"

namespace sipre
{
namespace
{

// ------------------------------------------------------------------- TLB

TEST(Tlb, MissThenHit)
{
    Tlb tlb(TlbConfig{});
    EXPECT_FALSE(tlb.contains(0x400000));
    EXPECT_EQ(tlb.lookup(0x400000), TlbConfig{}.walk_latency);
    EXPECT_TRUE(tlb.contains(0x400000));
    EXPECT_EQ(tlb.lookup(0x400000), 0u);
    EXPECT_EQ(tlb.stats().lookups, 2u);
    EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(Tlb, SamePageSharesTranslation)
{
    Tlb tlb(TlbConfig{});
    tlb.lookup(0x400000);
    EXPECT_EQ(tlb.lookup(0x400040), 0u) << "same 4 KiB page";
    EXPECT_EQ(tlb.lookup(0x400fc0), 0u);
    EXPECT_GT(tlb.lookup(0x401000), 0u) << "next page misses";
}

TEST(Tlb, LruEvictionWithinSet)
{
    TlbConfig config;
    config.entries = 4;
    config.ways = 2; // 2 sets
    Tlb tlb(config);
    // Three pages mapping to the same set (stride = sets * page).
    const Addr stride = 2 * 4096;
    tlb.lookup(0x400000);
    tlb.lookup(0x400000 + stride);
    tlb.lookup(0x400000); // refresh
    tlb.lookup(0x400000 + 2 * stride);
    EXPECT_TRUE(tlb.contains(0x400000));
    EXPECT_FALSE(tlb.contains(0x400000 + stride));
}

TEST(Tlb, FrontendWalksDelayFetch)
{
    const auto spec = synth::makeWorkloadSpec(
        "secret_srv12", synth::Archetype::kServer, 0x517e2023ULL);
    const Trace trace = synth::generateTrace(spec, 100'000);

    SimConfig with_tlb = SimConfig::industry();
    with_tlb.frontend.itlb = true;
    SimResult base, tlb;
    {
        Simulator sim(SimConfig::industry(), trace);
        base = sim.run();
    }
    {
        Simulator sim(with_tlb, trace);
        tlb = sim.run();
        EXPECT_GT(sim.frontend().stats().itlb_walks, 0u);
        ASSERT_NE(sim.frontend().itlb(), nullptr);
        EXPECT_GT(sim.frontend().itlb()->stats().misses, 0u);
    }
    EXPECT_LE(tlb.ipc(), base.ipc())
        << "ITLB walks cannot make fetch faster";
}

// --------------------------------------------------------- IP-stride DPF

TEST(IpStride, ArmsAfterTwoMatchingStrides)
{
    IpStridePrefetcher pf(64, 2);
    pf.onLoad(0x1000, 0x9000, true);
    pf.onLoad(0x1000, 0x9040, true);
    EXPECT_TRUE(pf.candidates().empty()) << "stride observed once";
    pf.onLoad(0x1000, 0x9080, true);
    pf.onLoad(0x1000, 0x90c0, true);
    ASSERT_GE(pf.candidates().size(), 2u);
    EXPECT_EQ(pf.candidates()[0], 0x9100u);
    EXPECT_EQ(pf.candidates()[1], 0x9140u);
}

TEST(IpStride, DifferentPcsTrackIndependently)
{
    IpStridePrefetcher pf(64, 1);
    for (int i = 0; i < 6; ++i) {
        pf.onLoad(0x1000, 0x9000 + Addr(i) * 8, true);
        pf.onLoad(0x2000, 0xA000 + Addr(i) * 128, true);
    }
    bool saw_small = false, saw_big = false;
    for (Addr a : pf.candidates()) {
        saw_small |= (a > 0x9000 && a < 0xA000);
        saw_big |= a >= 0xA000;
    }
    EXPECT_TRUE(saw_small);
    EXPECT_TRUE(saw_big);
}

TEST(IpStride, RandomAccessesStayQuiet)
{
    IpStridePrefetcher pf(64, 2);
    Rng rng(5);
    for (int i = 0; i < 100; ++i)
        pf.onLoad(0x1000, 0x9000 + rng.below(1 << 20), true);
    EXPECT_LT(pf.candidates().size(), 10u);
}

TEST(IpStride, FactoryKinds)
{
    EXPECT_EQ(makeDataPrefetcher(DPrefetcherKind::kNone), nullptr);
    EXPECT_NE(makeDataPrefetcher(DPrefetcherKind::kIpStride), nullptr);
}

TEST(IpStride, IntegratesWithHierarchy)
{
    HierarchyConfig config;
    config.l1d_prefetcher = DPrefetcherKind::kIpStride;
    SoloMemory mem(config);
    Cycle now = 0;
    // A strided load stream: the prefetcher should generate L1-D fills.
    for (int i = 0; i < 32; ++i) {
        if (mem.dataCanAccept())
            mem.issueLoad(0x90000 + Addr(i) * 256, now, 0x1234);
        for (int c = 0; c < 250; ++c) {
            mem.tick(now++);
            mem.dataCompleted().clear();
        }
    }
    EXPECT_GT(mem.l1d().stats().prefetch_fills +
                  mem.l1d().stats().prefetch_late,
              0u);
    EXPECT_GT(mem.l1d().stats().prefetch_useful, 0u)
        << "later demand loads must hit the prefetched lines";
}

} // namespace
} // namespace sipre
