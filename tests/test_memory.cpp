/**
 * @file
 * Tests for the memory hierarchy: cache hit/miss timing, replacement,
 * MSHR merging, prefetch semantics, writebacks, DRAM, and the assembled
 * hierarchy's end-to-end latencies plus request-conservation properties.
 */
#include <unordered_map>

#include <gtest/gtest.h>

#include "memory/cache.hpp"
#include "memory/dram.hpp"
#include "memory/hierarchy.hpp"
#include "memory/iprefetcher.hpp"
#include "memory/replacement.hpp"
#include "util/rng.hpp"
#include "solo_memory.hpp"

namespace sipre
{
namespace
{

/** A bottomless backing store with fixed latency, for isolated tests. */
class FakeMemory : public MemoryDevice
{
  public:
    explicit FakeMemory(Cycle latency) : latency_(latency) {}

    bool canAccept() const override { return accepting; }

    void
    enqueue(MemRequest req) override
    {
        if (req.type == AccessType::kWriteback) {
            ++writebacks;
            return;
        }
        ++reads;
        req.served_by = ServedBy::kDram;
        pending_.push_back({req, current_ + latency_});
    }

    void
    tick(Cycle now) override
    {
        current_ = now;
        for (std::size_t i = 0; i < pending_.size();) {
            if (pending_[i].second <= now) {
                MemRequest req = pending_[i].first;
                req.complete_cycle = now;
                pending_.erase(pending_.begin() +
                               static_cast<std::ptrdiff_t>(i));
                if (req.requester)
                    req.requester->handleFill(req);
                else if (onComplete)
                    onComplete(req);
            } else {
                ++i;
            }
        }
    }

    bool accepting = true;
    int reads = 0;
    int writebacks = 0;

  private:
    Cycle latency_;
    Cycle current_ = 0;
    std::vector<std::pair<MemRequest, Cycle>> pending_;
};

CacheConfig
tinyCacheConfig()
{
    CacheConfig config;
    config.name = "test";
    config.size_bytes = 4 * 1024; // 64 lines
    config.ways = 4;
    config.latency = 3;
    config.mshrs = 4;
    config.queue_size = 16;
    config.tags_per_cycle = 2;
    return config;
}

struct Harness
{
    explicit Harness(CacheConfig config = tinyCacheConfig(),
                     Cycle mem_latency = 50)
        : memory(mem_latency), cache(config, &memory)
    {
        cache.onComplete = [this](const MemRequest &req) {
            completed[req.id] = req;
        };
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            memory.tick(now);
            cache.tick(now);
            ++now;
        }
    }

    ReqId
    access(Addr line, AccessType type = AccessType::kIFetch)
    {
        MemRequest req;
        req.id = next_id++;
        req.line_addr = line;
        req.type = type;
        req.issue_cycle = now;
        cache.enqueue(req);
        return req.id;
    }

    FakeMemory memory;
    Cache cache;
    std::unordered_map<ReqId, MemRequest> completed;
    ReqId next_id = 1;
    Cycle now = 0;
};

// ------------------------------------------------------------- basic path

TEST(Cache, MissThenHitLatency)
{
    Harness h;
    const ReqId miss = h.access(0x1000);
    h.run(100);
    ASSERT_TRUE(h.completed.count(miss));
    // Miss: tag latency (3) + memory (50), completes in the 50s range.
    EXPECT_GE(h.completed[miss].complete_cycle, 50u);
    EXPECT_EQ(h.completed[miss].served_by, ServedBy::kDram);

    const Cycle start = h.now;
    const ReqId hit = h.access(0x1000);
    h.run(10);
    ASSERT_TRUE(h.completed.count(hit));
    EXPECT_EQ(h.completed[hit].complete_cycle - start,
              3u + 0u) // processed cycle 0 of the window + latency 3
        ;
    EXPECT_EQ(h.completed[hit].served_by, ServedBy::kL1);
    EXPECT_EQ(h.cache.stats().hits, 1u);
    EXPECT_EQ(h.cache.stats().misses, 1u);
}

TEST(Cache, ContainsAfterFill)
{
    Harness h;
    EXPECT_FALSE(h.cache.contains(0x1000));
    h.access(0x1000);
    h.run(100);
    EXPECT_TRUE(h.cache.contains(0x1000));
    EXPECT_FALSE(h.cache.contains(0x2000));
}

TEST(Cache, MshrMergesSameLine)
{
    Harness h;
    const ReqId a = h.access(0x1000);
    const ReqId b = h.access(0x1000);
    h.run(100);
    EXPECT_TRUE(h.completed.count(a));
    EXPECT_TRUE(h.completed.count(b));
    EXPECT_EQ(h.memory.reads, 1) << "one fill serves both";
    EXPECT_EQ(h.cache.stats().mshr_merges, 1u);
    EXPECT_EQ(h.cache.stats().misses, 1u);
}

TEST(Cache, MshrPendingVisible)
{
    Harness h;
    h.access(0x1000);
    h.run(5); // enough to look up and allocate the MSHR
    EXPECT_TRUE(h.cache.mshrPending(0x1000));
    h.run(100);
    EXPECT_FALSE(h.cache.mshrPending(0x1000));
}

TEST(Cache, HeadOfLineBlocksWhenMshrsFull)
{
    Harness h; // 4 MSHRs
    for (int i = 0; i < 5; ++i)
        h.access(0x1000 + Addr{static_cast<unsigned>(i)} * 64);
    h.run(10);
    EXPECT_EQ(h.cache.stats().misses, 4u) << "5th miss must wait";
    h.run(100);
    EXPECT_EQ(h.cache.stats().misses, 5u);
    EXPECT_EQ(h.completed.size(), 5u);
}

// ------------------------------------------------------------ replacement

TEST(Cache, LruEvictsOldest)
{
    CacheConfig config = tinyCacheConfig();
    config.size_bytes = 4 * 64; // 1 set, 4 ways
    config.ways = 4;
    Harness h(config);
    // Fill the set with 4 lines mapping to set 0.
    for (int i = 0; i < 4; ++i)
        h.access(Addr{static_cast<unsigned>(i)} * 64);
    h.run(200);
    // Touch line 0 so line 1 becomes LRU; then insert a 5th line.
    h.access(0);
    h.run(20);
    h.access(4 * 64);
    h.run(200);
    EXPECT_TRUE(h.cache.contains(0));
    EXPECT_FALSE(h.cache.contains(64)) << "LRU line must be evicted";
    EXPECT_TRUE(h.cache.contains(4 * 64));
}

TEST(Cache, DirtyEvictionWritesBack)
{
    CacheConfig config = tinyCacheConfig();
    config.size_bytes = 2 * 64; // 1 set, 2 ways
    config.ways = 2;
    Harness h(config);
    h.access(0, AccessType::kStore);
    h.run(200);
    h.access(64, AccessType::kIFetch);
    h.run(200);
    EXPECT_EQ(h.memory.writebacks, 0);
    h.access(128, AccessType::kIFetch); // evicts the dirty line 0
    h.run(200);
    EXPECT_EQ(h.memory.writebacks, 1);
}

TEST(ReplacementPolicies, SrripPrefersDistantLines)
{
    SrripPolicy policy(1, 4);
    policy.onFill(0, 0);
    policy.onFill(0, 1);
    policy.onHit(0, 0); // way 0 near-immediate reuse
    const auto victim = policy.victim(0);
    EXPECT_NE(victim, 0u);
}

TEST(ReplacementPolicies, RandomIsDeterministicPerSeed)
{
    RandomPolicy a(8, 5), b(8, 5);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.victim(0), b.victim(0));
}

TEST(ReplacementPolicies, DrripLeaderSetsTrainSelector)
{
    DrripPolicy policy(64, 4, 1);
    // Fill and hit patterns just exercise the state machine; the main
    // checks are bounds and that victims are always valid ways.
    for (std::uint32_t set = 0; set < 64; ++set) {
        for (std::uint32_t way = 0; way < 4; ++way)
            policy.onFill(set, way);
        policy.onHit(set, 1);
        EXPECT_LT(policy.victim(set), 4u);
    }
}

TEST(ReplacementPolicies, DrripRecentHitSurvives)
{
    DrripPolicy policy(64, 4, 1);
    for (std::uint32_t way = 0; way < 4; ++way)
        policy.onFill(5, way);
    policy.onHit(5, 2); // rrpv 0: must not be the next victim
    EXPECT_NE(policy.victim(5), 2u);
}

TEST(ReplacementPolicies, FactoryCoversAllKinds)
{
    for (auto kind : {ReplPolicyKind::kLru, ReplPolicyKind::kRandom,
                      ReplPolicyKind::kSrrip, ReplPolicyKind::kDrrip}) {
        auto policy = makeReplacementPolicy(kind, 4, 4, 1);
        ASSERT_NE(policy, nullptr);
        policy->onFill(0, 0);
        EXPECT_LT(policy->victim(0), 4u);
    }
}

// -------------------------------------------------------------- prefetch

TEST(Cache, PrefetchFillsWithoutDemandStats)
{
    Harness h;
    h.access(0x1000, AccessType::kPrefetch);
    h.run(100);
    EXPECT_TRUE(h.cache.contains(0x1000));
    EXPECT_EQ(h.cache.stats().accesses, 0u);
    EXPECT_EQ(h.cache.stats().misses, 0u);
    EXPECT_EQ(h.cache.stats().prefetch_requests, 1u);
    EXPECT_EQ(h.cache.stats().prefetch_fills, 1u);
}

TEST(Cache, DemandHitOnPrefetchedLineCountsUseful)
{
    Harness h;
    h.access(0x1000, AccessType::kPrefetch);
    h.run(100);
    h.access(0x1000, AccessType::kIFetch);
    h.run(20);
    EXPECT_EQ(h.cache.stats().prefetch_useful, 1u);
}

TEST(Cache, LatePrefetchUpgradesToDemand)
{
    Harness h;
    h.access(0x1000, AccessType::kPrefetch);
    h.run(5);
    const ReqId demand = h.access(0x1000, AccessType::kIFetch);
    h.run(100);
    EXPECT_TRUE(h.completed.count(demand));
    EXPECT_EQ(h.cache.stats().prefetch_late, 1u);
    EXPECT_EQ(h.cache.stats().misses, 1u) << "late prefetch is a miss";
}

TEST(Cache, OnDemandMissHookFires)
{
    Harness h;
    std::vector<Addr> misses;
    h.cache.onDemandMiss = [&](Addr line, AccessType) {
        misses.push_back(line);
    };
    h.access(0x1000);
    h.access(0x1000); // merge: no second hook
    h.run(100);
    h.access(0x1000); // hit: no hook
    h.run(20);
    ASSERT_EQ(misses.size(), 1u);
    EXPECT_EQ(misses[0], 0x1000u);
}

TEST(Cache, OnAccessHookSeesHitsAndMisses)
{
    Harness h;
    int hits = 0, miss_count = 0;
    h.cache.onAccess = [&](Addr, AccessType, bool hit) {
        (hit ? hits : miss_count)++;
    };
    h.access(0x1000);
    h.run(100);
    h.access(0x1000);
    h.run(20);
    EXPECT_EQ(miss_count, 1);
    EXPECT_EQ(hits, 1);
}

// ----------------------------------------------------------- conservation

TEST(Cache, EveryDemandCompletesExactlyOnce)
{
    Harness h;
    Rng rng(31);
    std::vector<ReqId> issued;
    for (int step = 0; step < 3000; ++step) {
        if (h.cache.canAccept() && rng.chance(0.5)) {
            const Addr line = rng.below(256) * 64;
            issued.push_back(h.access(
                line, rng.chance(0.2) ? AccessType::kStore
                                      : AccessType::kIFetch));
        }
        h.run(1);
    }
    h.run(2000);
    std::size_t completed_loads = 0;
    for (ReqId id : issued) {
        // Stores complete too in this model (write-allocate ack).
        completed_loads += h.completed.count(id);
    }
    EXPECT_EQ(completed_loads, issued.size());
}

// ------------------------------------------------------------------ DRAM

TEST(Dram, RowBufferHitsAreFaster)
{
    DramConfig config;
    Dram dram(config);
    Cycle completion_a = 0, completion_b = 0;
    int done = 0;
    dram.onComplete = [&](const MemRequest &req) {
        (req.id == 1 ? completion_a : completion_b) =
            req.complete_cycle;
        ++done;
    };
    MemRequest a;
    a.id = 1;
    a.line_addr = 0x10000;
    dram.enqueue(a);
    MemRequest b;
    b.id = 2;
    b.line_addr = 0x10000 + 64 * config.banks; // same bank, same row
    dram.enqueue(b);
    for (Cycle c = 0; c < 600 && done < 2; ++c)
        dram.tick(c);
    ASSERT_EQ(done, 2);
    EXPECT_EQ(dram.stats().row_misses, 1u);
    EXPECT_EQ(dram.stats().row_hits, 1u);
    // a opens the row (hit latency + extra); b, issued issue_gap later,
    // hits the open row and finishes earlier despite starting second.
    EXPECT_GE(completion_a, config.row_hit_latency + config.row_miss_extra);
    EXPECT_EQ(completion_b,
              config.issue_gap + config.row_hit_latency);
    EXPECT_LT(completion_b, completion_a);
}

TEST(Dram, AbsorbsWritebacks)
{
    Dram dram(DramConfig{});
    MemRequest wb;
    wb.type = AccessType::kWriteback;
    wb.line_addr = 0x4000;
    dram.enqueue(wb);
    dram.tick(0);
    EXPECT_EQ(dram.stats().writebacks, 1u);
    EXPECT_EQ(dram.stats().reads, 0u);
}

TEST(Dram, BandwidthGapLimitsIssue)
{
    DramConfig config;
    config.issue_gap = 10;
    Dram dram(config);
    int done = 0;
    Cycle last = 0, first = 0;
    dram.onComplete = [&](const MemRequest &req) {
        if (done == 0)
            first = req.complete_cycle;
        last = req.complete_cycle;
        ++done;
    };
    for (int i = 0; i < 4; ++i) {
        MemRequest req;
        req.id = static_cast<ReqId>(i + 1);
        req.line_addr = Addr{static_cast<unsigned>(i)} * 64;
        dram.enqueue(req);
    }
    for (Cycle c = 0; c < 1000 && done < 4; ++c)
        dram.tick(c);
    ASSERT_EQ(done, 4);
    EXPECT_GE(last - first, 3u * config.issue_gap);
}

// -------------------------------------------------------------- hierarchy

TEST(Hierarchy, LatenciesStackPerLevel)
{
    SoloMemory mem;
    // Cold miss goes to DRAM.
    const ReqId cold = mem.issueIFetch(0x400000, 0);
    Cycle now = 0;
    Cycle cold_done = 0;
    while (cold_done == 0 && now < 2000) {
        mem.tick(now);
        for (const auto &req : mem.ifetchCompleted()) {
            if (req.id == cold)
                cold_done = req.complete_cycle;
        }
        mem.ifetchCompleted().clear();
        ++now;
    }
    ASSERT_GT(cold_done, 0u);
    EXPECT_GT(cold_done, 100u) << "cold miss must reach DRAM";

    // Warm hit: L1-I latency only.
    const Cycle start = now;
    const ReqId warm = mem.issueIFetch(0x400000, now);
    Cycle warm_done = 0;
    while (warm_done == 0 && now < start + 100) {
        mem.tick(now);
        for (const auto &req : mem.ifetchCompleted()) {
            if (req.id == warm)
                warm_done = req.complete_cycle;
        }
        mem.ifetchCompleted().clear();
        ++now;
    }
    ASSERT_GT(warm_done, 0u);
    EXPECT_LE(warm_done - start, 8u);
}

TEST(Hierarchy, PrefetchDroppedWhenLinePresent)
{
    SoloMemory mem;
    mem.issueIFetch(0x400000, 0);
    for (Cycle c = 0; c < 1000; ++c) {
        mem.tick(c);
        mem.ifetchCompleted().clear();
    }
    const ReqId pf = mem.issueIPrefetch(0x400000, 1000);
    EXPECT_EQ(pf, 0u) << "prefetch to a resident line is dropped";
}

TEST(Hierarchy, LoadAndStoreSharePort)
{
    SoloMemory mem;
    const ReqId load = mem.issueLoad(0x9000, 0);
    mem.issueStore(0x9100, 0);
    bool load_done = false;
    for (Cycle c = 0; c < 2000 && !load_done; ++c) {
        mem.tick(c);
        for (const auto &req : mem.dataCompleted())
            load_done |= req.id == load;
        mem.dataCompleted().clear();
    }
    EXPECT_TRUE(load_done);
}

TEST(Hierarchy, LlcAccessLatencyMatchesConfig)
{
    HierarchyConfig config;
    SoloMemory mem{config};
    EXPECT_EQ(mem.llcAccessLatency(),
              config.l1i.latency + config.l2.latency +
                  config.llc.latency);
}

// ------------------------------------------------------- HW I-prefetchers

namespace
{
/** Pull every queued candidate out of a prefetcher. */
std::vector<Addr>
drainAll(InstrPrefetcher &pf, Cycle now = 0)
{
    std::vector<Addr> out;
    while (pf.hasCandidates())
        pf.drainInto(out, InstrPrefetcher::kMaxQueuedCandidates, now);
    return out;
}
} // namespace

TEST(NextLine, EmitsSequentialCandidatesOnMiss)
{
    NextLinePrefetcher pf(2);
    pf.onAccess(0x1000, /*hit=*/false, 0);
    const std::vector<Addr> cands = drainAll(pf);
    ASSERT_EQ(cands.size(), 2u);
    EXPECT_EQ(cands[0], 0x1040u);
    EXPECT_EQ(cands[1], 0x1080u);
    pf.onAccess(0x2000, /*hit=*/true, 1);
    EXPECT_FALSE(pf.hasCandidates());
}

TEST(EipLite, LearnsRecurringMissPattern)
{
    EipLitePrefetcher pf(256, 8, 10);
    // Trigger line A at t, miss B at t+20, repeatedly.
    for (int round = 0; round < 5; ++round) {
        const Cycle base = static_cast<Cycle>(round) * 100;
        pf.onAccess(0xA000, true, base);
        drainAll(pf);
        pf.onAccess(0xB000, false, base + 20);
        drainAll(pf);
    }
    // Next access to the trigger should prefetch B.
    pf.onAccess(0xA000, true, 1000);
    bool found = false;
    for (Addr line : drainAll(pf))
        found |= line == 0xB000;
    EXPECT_TRUE(found);
}

TEST(IPrefetcherFactory, Kinds)
{
    EXPECT_EQ(makeInstrPrefetcher(IPrefetcherKind::kNone), nullptr);
    EXPECT_NE(makeInstrPrefetcher(IPrefetcherKind::kNextLine), nullptr);
    EXPECT_NE(makeInstrPrefetcher(IPrefetcherKind::kEipLite), nullptr);
    // The hwpf-managed kinds are built by src/hwpf/, not the factory.
    EXPECT_EQ(makeInstrPrefetcher(IPrefetcherKind::kFdip), nullptr);
    EXPECT_EQ(makeInstrPrefetcher(IPrefetcherKind::kMana), nullptr);
    EXPECT_EQ(makeInstrPrefetcher(IPrefetcherKind::kFdipMana), nullptr);
}

TEST(IPrefetcherFactory, PanicsOnUnknownKind)
{
    EXPECT_DEATH(
        {
            makeInstrPrefetcher(static_cast<IPrefetcherKind>(0xEE));
        },
        "unknown instruction prefetcher kind 238");
}

TEST(InstrPrefetcher, QueueIsBoundedAndDeduped)
{
    // A misbehaving prefetcher that emits without bound on every access.
    class Firehose : public InstrPrefetcher
    {
      public:
        Firehose() : InstrPrefetcher("firehose") {}
        void
        onAccess(Addr line, bool, Cycle) override
        {
            for (Addr i = 0; i < 1000; ++i)
                emit(line + i * 64);
        }
    };
    Firehose pf;
    pf.onAccess(0x10000, false, 0);
    pf.onAccess(0x10000, false, 1); // duplicates: must not grow anything
    const std::vector<Addr> drained = drainAll(pf);
    EXPECT_EQ(drained.size(), InstrPrefetcher::kMaxQueuedCandidates);
    // 2000 emits, 64 queued, 64 were duplicates of queued lines.
    EXPECT_EQ(pf.counters().dropped_overflow,
              2000u - 2 * InstrPrefetcher::kMaxQueuedCandidates);
    EXPECT_FALSE(pf.hasCandidates());
}

TEST(InstrPrefetcher, DrainIntoRespectsCap)
{
    NextLinePrefetcher pf(8);
    pf.onAccess(0x1000, false, 0);
    std::vector<Addr> out;
    EXPECT_EQ(pf.drainInto(out, 3, 0), 3u);
    EXPECT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 0x1040u);
    EXPECT_TRUE(pf.hasCandidates()) << "remaining candidates stay queued";
    EXPECT_EQ(pf.drainInto(out, 100, 0), 5u);
    EXPECT_FALSE(pf.hasCandidates());
}

TEST(Hierarchy, PrefetchUsefulnessAccounting)
{
    // Next-line prefetcher on the L1-I: a miss on line A prefetches
    // A+1/A+2; a later demand fetch of A+1 must count the prefetch as
    // useful and route the outcome to the component's counter block.
    HierarchyConfig config;
    config.l1i_prefetcher = IPrefetcherKind::kNextLine;
    SoloMemory mem{config};
    ASSERT_EQ(mem.iprefetchers().size(), 1u);

    mem.issueIFetch(0x40000, 0);
    bool fetch_done = false;
    Cycle c = 0;
    for (; c < 2000 && !fetch_done; ++c) {
        mem.tick(c);
        fetch_done = !mem.ifetchCompleted().empty();
        mem.ifetchCompleted().clear();
    }
    // Let the prefetches issue and fill.
    for (Cycle stop = c + 1000; c < stop; ++c)
        mem.tick(c);

    const HwPrefetchCounters &counters = mem.iprefetchers()[0]->counters();
    EXPECT_EQ(counters.name, "nextline");
    EXPECT_EQ(counters.issued, 2u);
    EXPECT_EQ(counters.useful, 0u);

    // Demand-fetch a prefetched line: useful.
    mem.issueIFetch(0x40040, c);
    for (Cycle stop = c + 100; c < stop; ++c) {
        mem.tick(c);
        mem.ifetchCompleted().clear();
    }
    EXPECT_EQ(counters.useful, 1u);
    EXPECT_EQ(counters.late, 0u);
    EXPECT_EQ(counters.accuracy(), 0.5);
}

TEST(Hierarchy, LatePrefetchAccounting)
{
    // A demand fetch that catches its prefetch still in flight counts
    // as late, not useful.
    HierarchyConfig config;
    config.l1i_prefetcher = IPrefetcherKind::kNextLine;
    SoloMemory mem{config};
    ASSERT_EQ(mem.iprefetchers().size(), 1u);

    mem.issueIFetch(0x80000, 0);
    // Tick just far enough for the miss to register and the prefetches
    // to issue, then immediately demand the prefetched line.
    for (Cycle c = 0; c < 3; ++c) {
        mem.tick(c);
        mem.ifetchCompleted().clear();
    }
    mem.issueIFetch(0x80040, 3);
    for (Cycle c = 3; c < 2000; ++c) {
        mem.tick(c);
        mem.ifetchCompleted().clear();
    }
    const HwPrefetchCounters &counters = mem.iprefetchers()[0]->counters();
    EXPECT_EQ(counters.late, 1u);
    EXPECT_EQ(counters.useful, 0u);
}

} // namespace
} // namespace sipre
