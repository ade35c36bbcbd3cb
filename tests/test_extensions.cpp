/**
 * @file
 * Tests for the paper's Sec. VI extensions: metadata preloading and
 * feedback-directed software prefetching, plus the campaign layer.
 */
#include <cstdio>
#include <sstream>

#include <gtest/gtest.h>

#include "asmdb/extensions.hpp"
#include "core/experiment.hpp"
#include "core/metadata_preload.hpp"
#include "core/simulator.hpp"
#include "trace/trace_stats.hpp"
#include "trace/synth/workload.hpp"
#include "trace_obs/recorder.hpp"
#include "solo_memory.hpp"

namespace sipre
{
namespace
{

// --------------------------------------------------- metadata preloader

TEST(MetadataPreloader, MissThenFillThenHit)
{
    SoloMemory memory;
    MetadataPreloadConfig config;
    config.l1_table_entries = 4;
    config.metadata_latency = 10;
    std::unordered_map<Addr, std::vector<Addr>> metadata;
    metadata[0x400000] = {0x700000};

    MetadataPreloader preloader(config, metadata);
    preloader.onL1iAccess(0x400000, 0);
    EXPECT_EQ(preloader.stats().lookups, 1u);
    EXPECT_EQ(preloader.stats().l1_hits, 0u);

    for (Cycle c = 0; c < 20; ++c) {
        memory.tick(c);
        preloader.tick(c, memory);
    }
    EXPECT_EQ(preloader.stats().metadata_fills, 1u);
    EXPECT_EQ(preloader.stats().prefetches_issued, 1u);

    preloader.onL1iAccess(0x400000, 30);
    EXPECT_EQ(preloader.stats().l1_hits, 1u);
}

TEST(MetadataPreloader, IgnoresLinesWithoutMetadata)
{
    SoloMemory memory;
    MetadataPreloader preloader(MetadataPreloadConfig{}, {});
    preloader.onL1iAccess(0x400000, 0);
    preloader.tick(1, memory);
    EXPECT_EQ(preloader.stats().lookups, 0u);
    EXPECT_EQ(preloader.stats().prefetches_issued, 0u);
}

TEST(MetadataPreloader, L1TableEvictsLru)
{
    SoloMemory memory;
    MetadataPreloadConfig config;
    config.l1_table_entries = 2;
    config.metadata_latency = 1;
    std::unordered_map<Addr, std::vector<Addr>> metadata;
    for (Addr line : {0x400000ull, 0x400040ull, 0x400080ull})
        metadata[line] = {line + 0x1000};

    MetadataPreloader preloader(config, metadata);
    Cycle now = 0;
    auto touch = [&](Addr line) {
        preloader.onL1iAccess(line, now);
        for (int i = 0; i < 5; ++i) {
            memory.tick(now);
            preloader.tick(now, memory);
            ++now;
        }
    };
    touch(0x400000);
    touch(0x400040);
    touch(0x400080); // evicts 0x400000
    const auto fills_before = preloader.stats().metadata_fills;
    touch(0x400000); // must re-fill
    EXPECT_EQ(preloader.stats().metadata_fills, fills_before + 1);
}

TEST(MetadataMap, GroupsPlanBySiteLine)
{
    asmdb::AsmdbPlan plan;
    plan.insertions.push_back(
        asmdb::Insertion{0x400004, 0x700000, 1.0, 1});
    plan.insertions.push_back(
        asmdb::Insertion{0x400008, 0x700040, 1.0, 1}); // same line
    plan.insertions.push_back(
        asmdb::Insertion{0x400044, 0x700000, 1.0, 1}); // next line
    const auto metadata = asmdb::buildMetadataMap(plan);
    ASSERT_EQ(metadata.size(), 2u);
    EXPECT_EQ(metadata.at(0x400000).size(), 2u);
    EXPECT_EQ(metadata.at(0x400040).size(), 1u);
}

TEST(MetadataPreloader, IntegratesWithSimulator)
{
    const auto spec = synth::makeWorkloadSpec(
        "secret_srv12", synth::Archetype::kServer, 0x517e2023ULL);
    const Trace trace = synth::generateTrace(spec, 150'000);
    const SimConfig config = SimConfig::industry();
    const auto artifacts = asmdb::runPipeline(trace, config);

    Simulator sim(config, trace);
    sim.attachMetadataPreloader(MetadataPreloadConfig{},
                                asmdb::buildMetadataMap(artifacts.plan));
    const SimResult result = sim.run();
    ASSERT_NE(sim.metadataStats(), nullptr);
    EXPECT_GT(sim.metadataStats()->lookups, 0u);
    EXPECT_GT(sim.metadataStats()->prefetches_issued, 0u);
    EXPECT_GT(result.ipc(), 0.1);
}

// ---------------------------------------------------- feedback-directed

TEST(Feedback, PrunesUnhelpfulInsertions)
{
    const auto spec = synth::makeWorkloadSpec(
        "secret_srv12", synth::Archetype::kServer, 0x517e2023ULL);
    const Trace trace = synth::generateTrace(spec, 150'000);
    const SimConfig config = SimConfig::conservative();

    asmdb::FeedbackParams feedback;
    feedback.rounds = 1;
    const auto result =
        asmdb::runFeedbackDirected(trace, config, {}, feedback);

    ASSERT_GE(result.insertions_per_round.size(), 1u);
    for (std::size_t i = 1; i < result.insertions_per_round.size(); ++i) {
        EXPECT_LE(result.insertions_per_round[i],
                  result.insertions_per_round[i - 1])
            << "insertions must be non-increasing across rounds";
    }
    std::string err;
    EXPECT_TRUE(validateTrace(result.rewrite.trace, &err)) << err;
}

// Round 0 judges each round against the pipeline's own profiling run:
// with no evaluation rounds the loop simulates exactly as often as the
// pipeline does.
TEST(Feedback, ReusesThePipelinesProfilingRun)
{
    const Trace trace = synth::generateTrace(
        *synth::findWorkload("secret_srv12"), 20'000);
    const SimConfig config = SimConfig::conservative();
    trace_obs::Recorder &recorder = trace_obs::Recorder::global();
    const auto simulations = [&recorder] {
        std::size_t runs = 0;
        recorder.forEachEvent(
            [&runs](const trace_obs::TraceEvent &event, std::uint32_t) {
                runs += std::string(event.name) == "sim.run";
            });
        recorder.clear();
        return runs;
    };
    recorder.clear();
    recorder.enable();
    const asmdb::AsmdbArtifacts artifacts = asmdb::runPipeline(trace, config);
    const std::size_t pipeline_runs = simulations();
    asmdb::FeedbackParams no_rounds;
    no_rounds.rounds = 0;
    const asmdb::FeedbackResult feedback =
        asmdb::runFeedbackDirected(trace, config, {}, no_rounds);
    const std::size_t feedback_runs = simulations();
    recorder.disable();

    EXPECT_EQ(pipeline_runs, 1u);
    EXPECT_EQ(feedback_runs, pipeline_runs);
    EXPECT_EQ(feedback.plan.insertions.size(),
              artifacts.plan.insertions.size());
    EXPECT_FALSE(artifacts.line_misses.empty());
}

// --------------------------------------------------------------- campaign

TEST(Campaign, OptionsFromEnv)
{
    setenv("SIPRE_WORKLOADS", "3", 1);
    setenv("SIPRE_INSTRUCTIONS", "12345", 1);
    const auto options = CampaignOptions::fromEnv();
    EXPECT_EQ(options.workloads, 3u);
    EXPECT_EQ(options.instructions, 12345u);
    unsetenv("SIPRE_WORKLOADS");
    unsetenv("SIPRE_INSTRUCTIONS");
}

TEST(Campaign, RunsAndCachesSmallCampaign)
{
    CampaignOptions options;
    options.workloads = 2;
    options.instructions = 60'000;
    options.cache_dir = ::testing::TempDir();
    options.use_cache = true;

    std::ostringstream progress;
    const CampaignResult first = runStandardCampaign(options, &progress);
    ASSERT_EQ(first.workloads.size(), 2u);
    EXPECT_EQ(first.workloads[0].name, "public_srv_60");
    EXPECT_GT(first.workloads[0].cons.ipc(), 0.0);
    EXPECT_GT(first.workloads[0].industry.ipc(), 0.0);
    EXPECT_GT(first.geomeanSpeedup(&WorkloadRecord::industry), 0.5);

    // Second call must load from cache and agree exactly.
    std::ostringstream progress2;
    const CampaignResult second =
        runStandardCampaign(options, &progress2);
    EXPECT_NE(progress2.str().find("cache"), std::string::npos);
    ASSERT_EQ(second.workloads.size(), first.workloads.size());
    for (std::size_t i = 0; i < first.workloads.size(); ++i) {
        EXPECT_EQ(second.workloads[i].cons.cycles,
                  first.workloads[i].cons.cycles);
        EXPECT_EQ(second.workloads[i].asmdb_ind.cycles,
                  first.workloads[i].asmdb_ind.cycles);
        EXPECT_DOUBLE_EQ(second.workloads[i].dynamic_bloat_ind,
                         first.workloads[i].dynamic_bloat_ind);
    }
}

TEST(Campaign, GeomeanSpeedupOfBaselineIsOne)
{
    CampaignOptions options;
    options.workloads = 1;
    options.instructions = 50'000;
    options.cache_dir = ::testing::TempDir();
    const CampaignResult result = runStandardCampaign(options, nullptr);
    EXPECT_NEAR(result.geomeanSpeedup(&WorkloadRecord::cons), 1.0, 1e-9);
}

} // namespace
} // namespace sipre
