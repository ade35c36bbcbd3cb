/**
 * @file
 * Differential tests for the event-driven fast-forward path: a
 * skip-enabled run must be bit-identical — every SimResult field,
 * including histogram buckets — to the reference cycle-by-cycle loop.
 * Covers the full standard campaign (all six configurations) plus
 * targeted feature combinations, and validates the nextEventCycle()
 * contract against the reference loop directly. The campaign's
 * reference results are also pinned to committed digests, which catch
 * what the skip-vs-reference comparison cannot: a change inside code
 * both loops share.
 */
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "asmdb/extensions.hpp"
#include "asmdb/pipeline.hpp"
#include "core/experiment.hpp"
#include "core/result_compare.hpp"
#include "core/simulator.hpp"
#include "trace/synth/workload.hpp"

namespace sipre
{
namespace
{

class SkipDifferential : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // A stray SIPRE_NO_SKIP would silently turn the skip runs into
        // reference runs and make every comparison vacuous.
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

SimResult
runOnce(SimConfig config, const Trace &trace, bool fast_forward,
        const SwPrefetchTriggers *triggers = nullptr,
        const std::unordered_map<Addr, std::vector<Addr>> *metadata =
            nullptr)
{
    config.fast_forward = fast_forward;
    Simulator sim(config, trace);
    if (triggers != nullptr)
        sim.setSwPrefetchTriggers(triggers);
    if (metadata != nullptr)
        sim.attachMetadataPreloader(MetadataPreloadConfig{}, *metadata);
    return sim.run();
}

void
expectIdentical(const SimConfig &config, const Trace &trace,
                const SwPrefetchTriggers *triggers = nullptr,
                const std::unordered_map<Addr, std::vector<Addr>>
                    *metadata = nullptr)
{
    const SimResult ref = runOnce(config, trace, false, triggers, metadata);
    const SimResult ffw = runOnce(config, trace, true, triggers, metadata);
    EXPECT_EQ(diffSimResults(ref, ffw), "")
        << "workload " << trace.name() << ", config " << config.label;
}

/** FNV-1a 64 of the lossless campaign-text form of `result`. */
std::uint64_t
resultDigest(const SimResult &result)
{
    std::ostringstream os;
    writeSimResultText(os, result);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : os.str()) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** "<workload> <config>" -> digest, from the committed digest file. */
std::map<std::string, std::uint64_t>
loadDigests(const std::string &path)
{
    std::map<std::string, std::uint64_t> digests;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, config, hex;
        fields >> workload >> config >> hex;
        digests[workload + " " + config] = std::stoull(hex, nullptr, 16);
    }
    return digests;
}

// The skip loop and the reference loop share Backend, Cache and
// CircularBuffer, so the comparison below cannot see a change inside
// them. Every reference result is therefore also checked against
// tests/data/campaign_ref_digests.txt. On a mismatch the digests this
// build computed are written to campaign_ref_digests.actual.txt in the
// working directory; copy that file over the committed one only when
// the change in simulated behaviour is intended.
void
expectPinnedDigests(const CampaignResult &ref)
{
    const std::map<std::string, std::uint64_t> expected =
        loadDigests(SIPRE_TEST_DATA_DIR "/campaign_ref_digests.txt");
    const std::pair<const char *, SimResult WorkloadRecord::*> configs[] = {
        {"cons", &WorkloadRecord::cons},
        {"industry", &WorkloadRecord::industry},
        {"asmdb_cons", &WorkloadRecord::asmdb_cons},
        {"asmdb_cons_ideal", &WorkloadRecord::asmdb_cons_ideal},
        {"asmdb_ind", &WorkloadRecord::asmdb_ind},
        {"asmdb_ind_ideal", &WorkloadRecord::asmdb_ind_ideal},
    };
    std::ostringstream actual;
    bool mismatch = false;
    for (const WorkloadRecord &record : ref.workloads) {
        for (const auto &[config, member] : configs) {
            const std::string key = record.name + " " + config;
            const std::uint64_t digest = resultDigest(record.*member);
            char hex[17];
            std::snprintf(hex, sizeof(hex), "%016llx",
                          static_cast<unsigned long long>(digest));
            actual << key << " " << hex << "\n";
            const auto it = expected.find(key);
            if (it == expected.end() || it->second != digest) {
                mismatch = true;
                ADD_FAILURE() << "workload " << record.name << ", config "
                              << config << ": simulated result "
                              << (it == expected.end() ? "has no digest"
                                                       : "changed");
            }
        }
    }
    EXPECT_EQ(expected.size(), ref.workloads.size() * std::size(configs))
        << "the digest file pins a different campaign";
    if (mismatch) {
        std::ofstream("campaign_ref_digests.actual.txt") << actual.str();
        ADD_FAILURE() << "computed digests written to "
                         "campaign_ref_digests.actual.txt";
    }
}

/**
 * Sets SIPRE_NO_SKIP for its lifetime, so every Simulator::run in that
 * scope takes the reference loop, and unsets it however the scope is
 * left.
 */
struct ReferenceLoopScope
{
    ReferenceLoopScope() { ::setenv("SIPRE_NO_SKIP", "1", 1); }
    ~ReferenceLoopScope() { ::unsetenv("SIPRE_NO_SKIP"); }
    ReferenceLoopScope(const ReferenceLoopScope &) = delete;
    ReferenceLoopScope &operator=(const ReferenceLoopScope &) = delete;
};

// The headline guarantee: the whole standard campaign — all 48 synth
// workloads through all six configurations, including the AsmDB
// pipeline's profiling runs — is unchanged by fast-forwarding, and the
// reference results match their pinned digests.
TEST_F(SkipDifferential, StandardCampaignAllConfigsBitIdentical)
{
    CampaignOptions options;
    options.workloads = 48;
    options.instructions = 40'000;
    options.use_cache = false;

    const CampaignResult ref = [&] {
        const ReferenceLoopScope reference;
        return runStandardCampaign(options);
    }();
    const CampaignResult ffw = runStandardCampaign(options);

    ASSERT_EQ(ref.workloads.size(), ffw.workloads.size());
    for (std::size_t i = 0; i < ref.workloads.size(); ++i) {
        const WorkloadRecord &a = ref.workloads[i];
        const WorkloadRecord &b = ffw.workloads[i];
        ASSERT_EQ(a.name, b.name);
        EXPECT_EQ(diffSimResults(a.cons, b.cons), "") << a.name;
        EXPECT_EQ(diffSimResults(a.industry, b.industry), "") << a.name;
        EXPECT_EQ(diffSimResults(a.asmdb_cons, b.asmdb_cons), "") << a.name;
        EXPECT_EQ(diffSimResults(a.asmdb_cons_ideal, b.asmdb_cons_ideal),
                  "")
            << a.name;
        EXPECT_EQ(diffSimResults(a.asmdb_ind, b.asmdb_ind), "") << a.name;
        EXPECT_EQ(diffSimResults(a.asmdb_ind_ideal, b.asmdb_ind_ideal), "")
            << a.name;
        EXPECT_EQ(a.static_bloat_ind, b.static_bloat_ind) << a.name;
        EXPECT_EQ(a.dynamic_bloat_ind, b.dynamic_bloat_ind) << a.name;
        EXPECT_EQ(a.insertions_ind, b.insertions_ind) << a.name;
        EXPECT_EQ(a.plan_min_distance_ind, b.plan_min_distance_ind)
            << a.name;
    }
    expectPinnedDigests(ref);
}

// The incremental FTQ counters (unready entries, uncounted fetch-done
// entries, not-issued / TLB-waiting lines) replaced per-cycle FTQ scans
// in the front-end fast path. With the crosscheck armed the front-end
// re-derives all four by full rescan at the end of every tick and
// panics on divergence — on both the reference and the skip loop — and
// arming it must not change a single result field.
TEST_F(SkipDifferential, FrontendCounterCrosscheck)
{
    const Trace trace =
        makeTrace("secret_srv12", synth::Archetype::kServer, 120'000);
    SimConfig config = SimConfig::industry();
    config.frontend.itlb = true; // exercise the kWaitingTlb counter too
    auto runChecked = [&](bool fast_forward) {
        SimConfig c = config;
        c.fast_forward = fast_forward;
        Simulator sim(c, trace);
        sim.frontend().enableCounterCrosscheck(true);
        return sim.run();
    };
    const SimResult ref = runChecked(false);
    const SimResult ffw = runChecked(true);
    EXPECT_EQ(diffSimResults(ref, ffw), "");
    const SimResult plain = runOnce(config, trace, true);
    EXPECT_EQ(diffSimResults(ffw, plain), "");
}

// Feature combinations the campaign does not exercise.

TEST_F(SkipDifferential, InstructionTlb)
{
    const Trace trace =
        makeTrace("secret_srv12", synth::Archetype::kServer, 120'000);
    SimConfig config = SimConfig::industry();
    config.frontend.itlb = true;
    expectIdentical(config, trace);
}

TEST_F(SkipDifferential, OracleBranchPrediction)
{
    const Trace trace =
        makeTrace("secret_int_124", synth::Archetype::kInteger, 120'000);
    SimConfig config = SimConfig::industry();
    config.frontend.oracle_bp = true;
    expectIdentical(config, trace);
}

TEST_F(SkipDifferential, NoPostFetchCorrectionNoWrongPath)
{
    const Trace trace =
        makeTrace("secret_srv12", synth::Archetype::kServer, 120'000);
    SimConfig config = SimConfig::conservative();
    config.frontend.pfc = false;
    config.frontend.wrong_path_fetch = false;
    expectIdentical(config, trace);
}

TEST_F(SkipDifferential, NextLineInstructionPrefetcher)
{
    const Trace trace =
        makeTrace("secret_srv12", synth::Archetype::kServer, 120'000);
    SimConfig config = SimConfig::industry();
    config.memory.l1i_prefetcher = IPrefetcherKind::kNextLine;
    expectIdentical(config, trace);
}

TEST_F(SkipDifferential, EipLitePrefetcherWithStridePrefetcher)
{
    const Trace trace =
        makeTrace("secret_srv12", synth::Archetype::kServer, 120'000);
    SimConfig config = SimConfig::industry();
    config.memory.l1i_prefetcher = IPrefetcherKind::kEipLite;
    config.memory.l1d_prefetcher = DPrefetcherKind::kIpStride;
    expectIdentical(config, trace);
}

// The hwpf-managed prefetchers (src/hwpf/) ride the front-end's
// run-ahead walk and the iTLB, both of which interact with the skip
// loop's event claims — each kind must stay bit-identical, with and
// without the iTLB the TLB-aware wrapper probes.
TEST_F(SkipDifferential, FdipPrefetcher)
{
    const Trace trace =
        makeTrace("secret_srv12", synth::Archetype::kServer, 120'000);
    SimConfig config = SimConfig::industry();
    config.memory.l1i_prefetcher = IPrefetcherKind::kFdip;
    expectIdentical(config, trace);
}

TEST_F(SkipDifferential, FdipPrefetcherWithItlb)
{
    const Trace trace =
        makeTrace("secret_srv12", synth::Archetype::kServer, 120'000);
    SimConfig config = SimConfig::industry();
    config.memory.l1i_prefetcher = IPrefetcherKind::kFdip;
    config.frontend.itlb = true; // arms the TLB-aware wrapper's filter
    expectIdentical(config, trace);
}

TEST_F(SkipDifferential, ManaPrefetcher)
{
    const Trace trace =
        makeTrace("secret_int_124", synth::Archetype::kInteger, 120'000);
    SimConfig config = SimConfig::industry();
    config.memory.l1i_prefetcher = IPrefetcherKind::kMana;
    expectIdentical(config, trace);
}

TEST_F(SkipDifferential, FdipManaCombinedConservativeFtq)
{
    const Trace trace =
        makeTrace("secret_srv12", synth::Archetype::kServer, 120'000);
    SimConfig config = SimConfig::conservative();
    config.memory.l1i_prefetcher = IPrefetcherKind::kFdipMana;
    config.frontend.itlb = true;
    expectIdentical(config, trace);
}

TEST_F(SkipDifferential, SingleEntryFtq)
{
    const Trace trace =
        makeTrace("secret_crypto52", synth::Archetype::kCrypto, 120'000);
    expectIdentical(SimConfig::withFtqDepth(1), trace);
}

TEST_F(SkipDifferential, MetadataPreloaderAndIdealTriggers)
{
    const Trace trace =
        makeTrace("secret_srv12", synth::Archetype::kServer, 120'000);
    const SimConfig config = SimConfig::industry();
    const auto artifacts = asmdb::runPipeline(trace, config);
    const auto metadata = asmdb::buildMetadataMap(artifacts.plan);
    expectIdentical(config, trace, &artifacts.triggers, &metadata);
}

// Every distance provider's instrumented run — the rewritten trace and
// the no-overhead trigger form — must stay bit-identical across the
// skip loop; the providers change which prefetches exist, not how the
// simulator executes them.
TEST_F(SkipDifferential, DistanceProvidersBitIdentical)
{
    const Trace trace =
        makeTrace("secret_srv12", synth::Archetype::kServer, 120'000);
    const SimConfig config = SimConfig::industry();
    for (const DistanceProviderKind kind :
         {DistanceProviderKind::kStatic, DistanceProviderKind::kProfile,
          DistanceProviderKind::kAdaptive}) {
        asmdb::AsmdbParams params;
        params.distance_provider = kind;
        const auto artifacts = asmdb::runPipeline(trace, config, params);
        expectIdentical(config, artifacts.rewrite.trace);
        expectIdentical(config, trace, &artifacts.triggers);
    }
}

// Direct contract validation: run the reference loop and assert that no
// progress observable changes strictly before the cycle nextEventCycle()
// claimed. This catches a too-aggressive claim even if, by luck, it does
// not perturb the aggregate statistics.

std::uint64_t
progressHash(Simulator &sim)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    const auto &b = sim.backend().stats();
    mix(b.retired);
    mix(b.dispatched);
    mix(b.loads_issued);
    mix(b.stores_issued);
    mix(sim.backend().robOccupancy());
    const auto &f = sim.frontend().stats();
    mix(f.blocks_allocated);
    mix(f.instructions_delivered);
    mix(f.l1i_fetches_issued);
    mix(f.l1i_fetches_merged);
    mix(f.sw_prefetches_triggered);
    mix(f.mispredict_stalls);
    mix(f.btb_miss_stalls);
    mix(f.pfc_resumes);
    mix(f.wrong_path_prefetches);
    mix(f.itlb_walks);
    mix(f.partial_head_events);
    mix(f.waiting_entry_events);
    mix(f.head_fetch_latency.count());
    mix(f.nonhead_fetch_latency.count());
    mix(sim.frontend().ftq().size());
    for (const Cache *c : {&sim.memory().l1i(), &sim.memory().l1d(),
                           &sim.memory().l2(), &sim.memory().llc()}) {
        const auto &s = c->stats();
        mix(s.accesses);
        mix(s.hits);
        mix(s.misses);
        mix(s.prefetch_requests);
        mix(s.prefetch_fills);
        mix(s.writebacks_in);
        mix(s.writebacks_out);
        mix(s.evictions);
    }
    const auto &d = sim.memory().dram().stats();
    mix(d.reads);
    mix(d.writebacks);
    return h;
}

TEST_F(SkipDifferential, NextEventCycleClaimsHoldOnReferenceLoop)
{
    for (const std::uint32_t ftq : {2u, 24u}) {
        const Trace trace =
            makeTrace("secret_srv12", synth::Archetype::kServer, 60'000);
        SimConfig config = SimConfig::withFtqDepth(ftq);
        config.fast_forward = false;
        Simulator sim(config, trace);

        Cycle predicted = 0;
        Cycle predicted_at = 0;
        std::uint64_t hash = 0;
        std::uint64_t violations = 0;
        sim.onCycleEnd = [&](Cycle now) {
            const std::uint64_t h = progressHash(sim);
            if (now > 0 && now < predicted && h != hash) {
                if (++violations == 1) {
                    ADD_FAILURE()
                        << "state changed at cycle " << now << " but cycle "
                        << predicted_at << " claimed no activity before "
                        << predicted << " (ftq " << ftq << ")";
                }
            }
            const Cycle next = sim.nextEventCycle(now);
            if (next > now + 1) {
                predicted = next;
                predicted_at = now;
                hash = h;
            } else {
                predicted = 0;
            }
        };
        sim.run();
        EXPECT_EQ(violations, 0u) << "ftq " << ftq;
    }
}

} // namespace
} // namespace sipre
