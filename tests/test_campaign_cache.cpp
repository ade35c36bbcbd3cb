/**
 * @file
 * Tests for the campaign layer's plumbing: the on-disk results cache
 * (lossless round-trip, stale-version rejection) and the environment
 * parsing behind CampaignOptions::fromEnv().
 */
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/result_compare.hpp"

namespace sipre
{
namespace
{

/**
 * A two-workload campaign whose cache file lives in a directory of its
 * own, removed on destruction. ctest runs every test in a process of
 * its own, in parallel; tests sharing one cache path raced (one test's
 * rewrite read as an empty file in another).
 */
struct TinyCampaign
{
    CampaignOptions options;
    std::string dir = ::testing::TempDir() + "sipre_campaign_XXXXXX";

    TinyCampaign()
    {
        options.workloads = 2;
        options.instructions = 20'000;
        options.use_cache = false;
        if (::mkdtemp(dir.data()) == nullptr)
            dir.clear();
        EXPECT_FALSE(dir.empty()) << "cannot create a cache directory";
        options.cache_dir = dir;
    }
    ~TinyCampaign()
    {
        if (!dir.empty())
            std::filesystem::remove_all(dir);
    }
};

void
expectRecordsIdentical(const WorkloadRecord &a, const WorkloadRecord &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(diffSimResults(a.cons, b.cons), "") << a.name;
    EXPECT_EQ(diffSimResults(a.industry, b.industry), "") << a.name;
    EXPECT_EQ(diffSimResults(a.asmdb_cons, b.asmdb_cons), "") << a.name;
    EXPECT_EQ(diffSimResults(a.asmdb_cons_ideal, b.asmdb_cons_ideal), "")
        << a.name;
    EXPECT_EQ(diffSimResults(a.asmdb_ind, b.asmdb_ind), "") << a.name;
    EXPECT_EQ(diffSimResults(a.asmdb_ind_ideal, b.asmdb_ind_ideal), "")
        << a.name;
    EXPECT_EQ(a.static_bloat_cons, b.static_bloat_cons);
    EXPECT_EQ(a.dynamic_bloat_cons, b.dynamic_bloat_cons);
    EXPECT_EQ(a.static_bloat_ind, b.static_bloat_ind);
    EXPECT_EQ(a.dynamic_bloat_ind, b.dynamic_bloat_ind);
    EXPECT_EQ(a.insertions_ind, b.insertions_ind);
    EXPECT_EQ(a.plan_min_distance_ind, b.plan_min_distance_ind);
}

TEST(CampaignCache, RoundTripIsFieldExact)
{
    const TinyCampaign tiny;
    const CampaignOptions &options = tiny.options;
    const CampaignResult computed = runStandardCampaign(options);
    ASSERT_EQ(computed.workloads.size(), options.workloads);

    saveCampaign(options, computed);
    CampaignResult loaded;
    ASSERT_TRUE(loadCampaign(options, loaded));
    ASSERT_EQ(loaded.workloads.size(), computed.workloads.size());
    for (std::size_t i = 0; i < computed.workloads.size(); ++i)
        expectRecordsIdentical(computed.workloads[i], loaded.workloads[i]);
}

// The hwpf counter section is written only when a run had hardware
// prefetchers installed (byte-identity for `none` runs), and must
// round-trip field-exactly when present — including through an old
// reader's perspective: a result without the section parses the same
// as before the section existed.
TEST(CampaignCache, HwpfSectionRoundTripsAndStaysOptional)
{
    SimResult result;
    result.workload = "secret_srv12";
    result.config_label = "industry-ftq24";
    result.instructions = 1000;
    result.effective_instructions = 1000;
    result.cycles = 2000;

    // No prefetchers ran: the serialized text must not mention hwpf.
    std::stringstream none;
    writeSimResultText(none, result);
    EXPECT_EQ(none.str().find("hwpf"), std::string::npos);
    SimResult none_back;
    ASSERT_TRUE(readSimResultText(none, none_back));
    EXPECT_EQ(diffSimResults(result, none_back), "");

    // Two components with every counter populated.
    HwPrefetchCounters fdip;
    fdip.name = "fdip";
    fdip.issued = 100;
    fdip.filtered = 7;
    fdip.dropped_overflow = 3;
    fdip.dropped_redirect = 21;
    fdip.dropped_tlb = 4;
    fdip.deferred_tlb = 2;
    fdip.useful = 60;
    fdip.late = 11;
    fdip.polluting = 9;
    fdip.demoted_fills = 90;
    HwPrefetchCounters mana;
    mana.name = "mana";
    mana.issued = 55;
    mana.useful = 20;
    result.hwpf = {fdip, mana};

    std::stringstream ss;
    writeSimResultText(ss, result);
    SimResult back;
    ASSERT_TRUE(readSimResultText(ss, back));
    EXPECT_EQ(diffSimResults(result, back), "");
    ASSERT_EQ(back.hwpf.size(), 2u);
    EXPECT_EQ(back.hwpf[0].dropped_redirect, 21u);
    EXPECT_EQ(back.hwpf[1].name, "mana");
}

TEST(CampaignCache, MissingFileFailsToLoad)
{
    const TinyCampaign tiny;
    CampaignOptions options = tiny.options;
    options.instructions = 19'997; // no cache was ever written for this
    CampaignResult result;
    EXPECT_FALSE(loadCampaign(options, result));
}

TEST(CampaignCache, StaleVersionIsRejected)
{
    const TinyCampaign tiny;
    const CampaignOptions &options = tiny.options;
    const CampaignResult computed = runStandardCampaign(options);
    saveCampaign(options, computed);

    // Rewrite the file header as if an older simulator had written it.
    const std::string path = campaignCachePath(options);
    std::stringstream contents;
    {
        std::ifstream is(path);
        ASSERT_TRUE(static_cast<bool>(is));
        contents << is.rdbuf();
    }
    int version = 0;
    contents >> version;
    EXPECT_EQ(version, kCampaignCacheVersion);
    {
        std::ofstream os(path);
        os << kCampaignCacheVersion - 1
           << contents.str().substr(std::to_string(version).size());
    }
    CampaignResult loaded;
    EXPECT_FALSE(loadCampaign(options, loaded));
}

TEST(CampaignCache, TruncatedFileFailsToLoad)
{
    const TinyCampaign tiny;
    const CampaignOptions &options = tiny.options;
    const CampaignResult computed = runStandardCampaign(options);
    saveCampaign(options, computed);

    const std::string path = campaignCachePath(options);
    std::string contents;
    {
        std::ifstream is(path);
        std::stringstream ss;
        ss << is.rdbuf();
        contents = ss.str();
    }
    {
        std::ofstream os(path);
        os << contents.substr(0, contents.size() / 2);
    }
    CampaignResult loaded;
    EXPECT_FALSE(loadCampaign(options, loaded));
}

// ------------------------------------------------- environment parsing

class CampaignEnv : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        ::unsetenv("SIPRE_WORKLOADS");
        ::unsetenv("SIPRE_INSTRUCTIONS");
        ::unsetenv("SIPRE_THREADS");
        ::unsetenv("SIPRE_NO_CACHE");
    }
};

TEST_F(CampaignEnv, NumericValuesAreApplied)
{
    ::setenv("SIPRE_WORKLOADS", "7", 1);
    ::setenv("SIPRE_INSTRUCTIONS", "123456", 1);
    ::setenv("SIPRE_THREADS", "3", 1);
    const CampaignOptions options = CampaignOptions::fromEnv();
    EXPECT_EQ(options.workloads, 7u);
    EXPECT_EQ(options.instructions, 123'456u);
    EXPECT_EQ(options.threads, 3u);
    EXPECT_TRUE(options.use_cache);
}

TEST_F(CampaignEnv, NonNumericValuesWarnAndKeepDefaults)
{
    const CampaignOptions defaults;
    ::setenv("SIPRE_WORKLOADS", "all", 1);
    ::setenv("SIPRE_INSTRUCTIONS", "100k", 1); // trailing junk
    ::testing::internal::CaptureStderr();
    const CampaignOptions options = CampaignOptions::fromEnv();
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(options.workloads, defaults.workloads);
    EXPECT_EQ(options.instructions, defaults.instructions);
    EXPECT_NE(warnings.find("SIPRE_WORKLOADS"), std::string::npos);
    EXPECT_NE(warnings.find("SIPRE_INSTRUCTIONS"), std::string::npos);
}

TEST_F(CampaignEnv, EmptyValuesKeepDefaultsSilently)
{
    const CampaignOptions defaults;
    ::setenv("SIPRE_WORKLOADS", "", 1);
    ::testing::internal::CaptureStderr();
    const CampaignOptions options = CampaignOptions::fromEnv();
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(options.workloads, defaults.workloads);
}

TEST_F(CampaignEnv, NoCacheFlagDisablesCache)
{
    ::setenv("SIPRE_NO_CACHE", "1", 1);
    EXPECT_FALSE(CampaignOptions::fromEnv().use_cache);
}

} // namespace
} // namespace sipre
