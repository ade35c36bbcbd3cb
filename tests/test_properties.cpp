/**
 * @file
 * Cross-module randomized property tests: rewriting with arbitrary
 * sub-plans always yields valid traces; layout mapping is injective on
 * the static code; end-to-end accounting identities hold; the report
 * printer renders every section.
 */
#include <sstream>
#include <unordered_set>

#include <gtest/gtest.h>

#include "asmdb/pipeline.hpp"
#include "core/report.hpp"
#include "core/simulator.hpp"
#include "multicore/multicore.hpp"
#include "trace/synth/workload.hpp"
#include "trace/trace_stats.hpp"
#include "util/rng.hpp"

namespace sipre
{
namespace
{

Trace
smallWorkload(std::size_t instructions = 120'000)
{
    const auto spec = synth::makeWorkloadSpec(
        "secret_srv12", synth::Archetype::kServer, 0x517e2023ULL);
    return synth::generateTrace(spec, instructions);
}

/** A real plan for the small workload, computed once. */
const asmdb::AsmdbPlan &
realPlan()
{
    static const asmdb::AsmdbPlan plan = [] {
        const Trace trace = smallWorkload();
        return asmdb::runPipeline(trace, SimConfig::conservative()).plan;
    }();
    return plan;
}

class RandomSubPlan : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomSubPlan, RewritingAnySubsetStaysValid)
{
    const Trace trace = smallWorkload();
    const asmdb::AsmdbPlan &full = realPlan();
    ASSERT_FALSE(full.insertions.empty());

    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
    asmdb::AsmdbPlan sub;
    for (const auto &ins : full.insertions) {
        if (rng.chance(0.5))
            sub.insertions.push_back(ins);
    }

    const asmdb::CodeLayout layout(sub);
    const asmdb::RewriteResult result =
        asmdb::rewriteTrace(trace, sub, layout);

    std::string err;
    ASSERT_TRUE(validateTrace(result.trace, &err)) << err;
    EXPECT_EQ(result.trace.size(),
              trace.size() + result.inserted_dynamic);

    // Layout is strictly monotonic => injective on the static code.
    std::unordered_set<Addr> original, mapped;
    for (const auto &inst : trace) {
        if (original.insert(inst.pc).second)
            mapped.insert(layout.map(inst.pc));
    }
    EXPECT_EQ(mapped.size(), original.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSubPlan,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Properties, RewrittenStaticSizeGrowsByInsertions)
{
    const Trace trace = smallWorkload();
    const asmdb::AsmdbPlan &plan = realPlan();
    const asmdb::CodeLayout layout(plan);
    const auto result = asmdb::rewriteTrace(trace, plan, layout);

    const TraceStats before = computeTraceStats(trace);
    const TraceStats after = computeTraceStats(result.trace);
    // Executed prefetch sites add unique static pcs; sites that never
    // execute on the fallthrough path add none, so growth is bounded by
    // the plan size.
    EXPECT_GE(after.static_instructions, before.static_instructions);
    EXPECT_LE(after.static_instructions,
              before.static_instructions + plan.insertions.size());
}

TEST(Properties, EffectiveInstructionsExcludePrefetches)
{
    const Trace trace = smallWorkload();
    const auto artifacts =
        asmdb::runPipeline(trace, SimConfig::conservative());
    Simulator sim(SimConfig::conservative(), artifacts.rewrite.trace);
    const SimResult r = sim.run();
    EXPECT_EQ(r.instructions - r.effective_instructions,
              r.backend.retired_sw_prefetches);
    EXPECT_GT(r.backend.retired_sw_prefetches, 0u);
}

TEST(Properties, DeliveredCoversRetired)
{
    const Trace trace = smallWorkload(60'000);
    Simulator sim(SimConfig::industry(), trace);
    const SimResult r = sim.run();
    // Post-warmup window: everything retired was delivered (deliveries
    // include the warmup phase only via the reset, so compare loosely).
    EXPECT_GE(r.frontend.instructions_delivered + 48'000u / 4,
              r.backend.retired);
}

TEST(Properties, TriggerModeMatchesInsertionTargets)
{
    const asmdb::AsmdbPlan &plan = realPlan();
    const SwPrefetchTriggers triggers = asmdb::buildTriggers(plan);
    std::size_t total = 0;
    for (const auto &[pc, targets] : triggers)
        total += targets.size();
    EXPECT_EQ(total, plan.insertions.size());
}

TEST(Properties, ReportPrinterRendersAllSections)
{
    const Trace trace = smallWorkload(60'000);
    Simulator sim(SimConfig::industry(), trace);
    const SimResult r = sim.run();
    std::ostringstream oss;
    printReport(r, oss);
    const std::string out = oss.str();
    for (const char *needle :
         {"scenario 1", "scenario 2", "scenario 3", "head stall",
          "branch prediction", "caches", "IPC"}) {
        EXPECT_NE(out.find(needle), std::string::npos) << needle;
    }
}

// A co-run's top-level scenario cycles sum every core's cycles, so its
// taxonomy is a share of the cores' summed cycles, not of the slowest
// core's: the four lines add up to 100% as they do for a solo run.
TEST(Properties, CoRunReportTaxonomySumsToOneHundredPercent)
{
    const Trace first = smallWorkload(20'000);
    Trace second = synth::generateTrace(
        *synth::findWorkload("secret_int_124"), 20'000);
    second.rebase(kCoreAddressStride);
    Simulator sim(SimConfig::industry(), {&first, &second});
    const SimResult r = sim.run();
    ASSERT_EQ(r.core_results.size(), 2u);
    std::ostringstream oss;
    printReport(r, oss);
    std::istringstream lines(oss.str());
    double sum = 0.0;
    int shares = 0;
    for (std::string line; std::getline(lines, line);) {
        if (line.find("scenario ") == std::string::npos &&
            line.find("FTQ empty:") == std::string::npos)
            continue;
        sum += std::stod(line.substr(line.find(':') + 1));
        ++shares;
    }
    EXPECT_EQ(shares, 4);
    EXPECT_NEAR(sum, 100.0, 0.03);
}

TEST(Properties, ConfigPresetLabelsAreDistinct)
{
    EXPECT_NE(SimConfig::conservative().label, SimConfig::industry().label);
    EXPECT_EQ(SimConfig::withFtqDepth(8).frontend.ftq_entries, 8u);
}

TEST(Properties, PlanTargetsAreLineAligned)
{
    for (const auto &ins : realPlan().insertions)
        EXPECT_EQ(ins.target_line % 64, 0u);
}

TEST(Properties, PlanSitesAreRealInstructions)
{
    const Trace trace = smallWorkload();
    std::unordered_set<Addr> pcs;
    for (const auto &inst : trace)
        pcs.insert(inst.pc);
    for (const auto &ins : realPlan().insertions)
        EXPECT_TRUE(pcs.count(ins.site_pc)) << std::hex << ins.site_pc;
}

} // namespace
} // namespace sipre
