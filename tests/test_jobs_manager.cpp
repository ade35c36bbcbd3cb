/**
 * @file
 * Job subsystem tests below the HTTP layer: sweep-spec parsing and
 * deterministic expansion, job-record persistence (round-trip, strict
 * rejection of stale/truncated/forged files), crash recovery through a
 * fresh JobManager (completed shards are never re-simulated), and the
 * manager's cancel and max-active-jobs backpressure semantics.
 */
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/result_text.hpp"
#include "jobs/job_store.hpp"
#include "jobs/manager.hpp"
#include "jobs/sweep.hpp"
#include "service/engine.hpp"

using namespace sipre;
using namespace sipre::jobs;

namespace
{

/** A unique scratch directory, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char name[] = "/tmp/sipre_jobs_test_XXXXXX";
        path = ::mkdtemp(name);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
};

/** Parse a spec that the test expects to be valid. */
SweepSpec
parseOk(const std::string &body)
{
    SweepSpec spec;
    std::string error;
    EXPECT_TRUE(parseSweepSpec(body, spec, error)) << error;
    return spec;
}

std::string
parseError(const std::string &body)
{
    SweepSpec spec;
    std::string error;
    EXPECT_FALSE(parseSweepSpec(body, spec, error)) << body;
    return error;
}

/** Poll until the job is terminal (or the deadline passes). */
JobProgress
awaitTerminal(JobManager &manager, std::uint64_t id, int timeout_s = 120)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
        const auto progress = manager.progress(id);
        if (progress && jobStateIsTerminal(progress->state))
            return *progress;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "job " << id << " did not reach a terminal state";
    return JobProgress{};
}

} // namespace

// ------------------------------------------------------ sweep parsing

TEST(JobsSweep, MinimalSpecIsOneDefaultShard)
{
    const SweepSpec spec =
        parseOk(R"({"workloads":["secret_crypto52"]})");
    EXPECT_EQ(spec.shardCount(), 1u);
    const auto shards = expandSweep(spec);
    ASSERT_EQ(shards.size(), 1u);
    // Every axis default matches the single-request defaults.
    const service::SimRequest defaults;
    EXPECT_EQ(shards[0].workload, "secret_crypto52");
    EXPECT_EQ(shards[0].instructions, defaults.instructions);
    EXPECT_EQ(shards[0].ftq_entries, defaults.ftq_entries);
    EXPECT_EQ(shards[0].mode, defaults.mode);
    EXPECT_EQ(shards[0].predictor, defaults.predictor);
    EXPECT_EQ(shards[0].hw_prefetcher, defaults.hw_prefetcher);
    EXPECT_EQ(shards[0].pfc, defaults.pfc);
    EXPECT_EQ(shards[0].ghr_filter, defaults.ghr_filter);
    EXPECT_EQ(shards[0].wrong_path, defaults.wrong_path);
}

TEST(JobsSweep, CartesianExpansionIsOrderedAndKeysAreUnique)
{
    const SweepSpec spec = parseOk(
        R"({"workloads":["secret_crypto52","secret_srv12"],)"
        R"("ftq":[4,8],"mode":["base","asmdb"],"instructions":30000})");
    EXPECT_EQ(spec.shardCount(), 8u);
    const auto shards = expandSweep(spec);
    ASSERT_EQ(shards.size(), 8u);

    // Workloads outermost, then ftq, then mode (the persisted contract).
    EXPECT_EQ(shards[0].workload, "secret_crypto52");
    EXPECT_EQ(shards[0].ftq_entries, 4u);
    EXPECT_EQ(shards[0].mode, SimMode::kBase);
    EXPECT_EQ(shards[1].mode, SimMode::kAsmdb);
    EXPECT_EQ(shards[2].ftq_entries, 8u);
    EXPECT_EQ(shards[2].mode, SimMode::kBase);
    EXPECT_EQ(shards[4].workload, "secret_srv12");

    std::set<std::string> keys;
    for (const auto &shard : shards)
        keys.insert(shard.canonicalKey());
    EXPECT_EQ(keys.size(), shards.size())
        << "expansion produced duplicate canonical keys";
}

TEST(JobsSweep, ScalarAxesAndAllWorkloadsExpand)
{
    const SweepSpec one = parseOk(
        R"({"workloads":["secret_crypto52"],"ftq":8,"mode":"asmdb",)"
        R"("predictor":"tage","hw_prefetcher":"nextline","pfc":false})");
    const auto shards = expandSweep(one);
    ASSERT_EQ(shards.size(), 1u);
    EXPECT_EQ(shards[0].ftq_entries, 8u);
    EXPECT_EQ(shards[0].mode, SimMode::kAsmdb);
    EXPECT_EQ(shards[0].predictor, DirectionPredictorKind::kTageLite);
    EXPECT_EQ(shards[0].hw_prefetcher, IPrefetcherKind::kNextLine);
    EXPECT_FALSE(shards[0].pfc);

    const SweepSpec all = parseOk(R"({"workloads":"all"})");
    EXPECT_EQ(all.workloads.size(), 48u);
    EXPECT_EQ(all.shardCount(), 48u);
}

TEST(JobsSweep, RejectionsAreSpecific)
{
    EXPECT_NE(parseError("{not json").find("invalid JSON"),
              std::string::npos);
    EXPECT_NE(parseError("[]").find("object"), std::string::npos);
    EXPECT_NE(parseError("{}").find("workloads"), std::string::npos);
    EXPECT_NE(parseError(R"({"workloads":[]})").find("empty array"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"workloads":["nope_wl"]})")
                  .find("unknown workload"),
              std::string::npos);
    EXPECT_NE(parseError(
                  R"({"workloads":["secret_crypto52"],"ftq":[4,4]})")
                  .find("duplicate"),
              std::string::npos);
    EXPECT_NE(parseError(
                  R"({"workloads":["secret_crypto52"],"ftq":9999})")
                  .find("ftq"),
              std::string::npos);
    EXPECT_NE(parseError(
                  R"({"workloads":["secret_crypto52"],"mode":"warp"})")
                  .find("mode"),
              std::string::npos);
    EXPECT_NE(parseError(
                  R"({"workloads":["secret_crypto52"],"bogus":1})")
                  .find("unknown field"),
              std::string::npos);
    EXPECT_NE(
        parseError(
            R"({"workloads":["secret_crypto52"],"instructions":12})")
            .find("out of range"),
        std::string::npos);

    // 48 workloads x 2 ftq x 5 modes x 5 predictors x 3 hardware
    // prefetchers = 7200 > 4096.
    EXPECT_NE(
        parseError(
            R"({"workloads":"all","ftq":[2,24],)"
            R"("mode":["base","asmdb","noovh","metadata","feedback"],)"
            R"("predictor":["perceptron","tage","gshare","bimodal",)"
            R"("local"],"hw_prefetcher":["none","nextline","eip"]})")
            .find("limit"),
        std::string::npos);
}

TEST(JobsSweep, CanonicalJsonRoundTrips)
{
    const SweepSpec spec = parseOk(
        R"({"workloads":["secret_srv12","secret_crypto52"],)"
        R"("ftq":[2,24],"mode":["base","noovh"],"wrong_path":[true,)"
        R"(false],"instructions":50000})");
    const SweepSpec reparsed = parseOk(sweepSpecToJson(spec));
    EXPECT_EQ(sweepSpecToJson(reparsed), sweepSpecToJson(spec));

    const auto a = expandSweep(spec);
    const auto b = expandSweep(reparsed);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].canonicalKey(), b[i].canonicalKey()) << i;
}

TEST(JobsSweep, CoresAxisExpandsBetweenWorkloadsAndFtq)
{
    const SweepSpec spec = parseOk(
        R"({"workloads":["secret_crypto52","secret_srv12"],)"
        R"("cores":[1,2],"ftq":[4,8],"instructions":30000})");
    EXPECT_EQ(spec.shardCount(), 8u);
    const auto shards = expandSweep(spec);
    ASSERT_EQ(shards.size(), 8u);

    // Workloads outermost, then cores, then ftq (the persisted
    // contract: a new axis slots in without reordering the old ones).
    EXPECT_EQ(shards[0].workload, "secret_crypto52");
    EXPECT_EQ(shards[0].cores, 1u);
    EXPECT_EQ(shards[0].ftq_entries, 4u);
    EXPECT_EQ(shards[1].cores, 1u);
    EXPECT_EQ(shards[1].ftq_entries, 8u);
    EXPECT_EQ(shards[2].cores, 2u);
    EXPECT_EQ(shards[2].ftq_entries, 4u);
    EXPECT_EQ(shards[4].workload, "secret_srv12");
    EXPECT_EQ(shards[4].cores, 1u);

    // A multi-core homogeneous shard is still spelled with an empty
    // mix, and every shard's canonical key is distinct.
    std::set<std::string> keys;
    for (const auto &shard : shards) {
        EXPECT_TRUE(shard.mix.empty());
        keys.insert(shard.canonicalKey());
    }
    EXPECT_EQ(keys.size(), shards.size());
}

TEST(JobsSweep, MixPinsTheMachineAndOtherAxesStillSweep)
{
    const SweepSpec spec = parseOk(
        R"({"mix":["secret_srv12","secret_int_124"],)"
        R"("mode":["base","asmdb"],"instructions":30000})");
    EXPECT_EQ(spec.shardCount(), 2u);
    ASSERT_EQ(spec.cores.size(), 1u);
    EXPECT_EQ(spec.cores[0], 2u);
    const auto shards = expandSweep(spec);
    ASSERT_EQ(shards.size(), 2u);
    for (const auto &shard : shards) {
        EXPECT_EQ(shard.cores, 2u);
        ASSERT_EQ(shard.mix.size(), 2u);
        EXPECT_EQ(shard.mix[0], "secret_srv12");
        EXPECT_EQ(shard.mix[1], "secret_int_124");
        EXPECT_EQ(shard.workload, "secret_srv12");
    }
    EXPECT_EQ(shards[0].mode, SimMode::kBase);
    EXPECT_EQ(shards[1].mode, SimMode::kAsmdb);

    // A mix can legitimately co-run two copies of one workload.
    const SweepSpec dup = parseOk(
        R"({"mix":["secret_srv12","secret_srv12","secret_int_124"]})");
    EXPECT_EQ(dup.shardCount(), 1u);
    EXPECT_EQ(expandSweep(dup)[0].cores, 3u);
}

TEST(JobsSweep, HomogeneousMixSharesKeysWithTheCoresSpelling)
{
    // `mix: [w, w]` and `workloads: [w], cores: 2` are the same
    // machine, so their shards must share canonical keys (one cache
    // entry, not two).
    const auto mixed = expandSweep(parseOk(
        R"({"mix":["secret_crypto52","secret_crypto52"]})"));
    const auto cored = expandSweep(parseOk(
        R"({"workloads":["secret_crypto52"],"cores":2})"));
    ASSERT_EQ(mixed.size(), 1u);
    ASSERT_EQ(cored.size(), 1u);
    EXPECT_TRUE(mixed[0].mix.empty());
    EXPECT_EQ(mixed[0].canonicalKey(), cored[0].canonicalKey());
}

TEST(JobsSweep, CoresAndMixRejectionsAreSpecific)
{
    EXPECT_NE(parseError(R"({"workloads":["secret_srv12"],)"
                         R"("mix":["secret_crypto52"]})")
                  .find("mutually exclusive"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"mix":["secret_srv12","secret_srv12"],)"
                         R"("cores":2})")
                  .find("implied"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"workloads":["secret_srv12"],"cores":0})")
                  .find("cores"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"workloads":["secret_srv12"],"cores":9})")
                  .find("cores"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"mix":["secret_srv12","nope_wl"]})")
                  .find("unknown workload"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"mix":[]})").find("mix"), std::string::npos);

    // The cores axis multiplies into the shard cap: 48 workloads x 8
    // core counts x 2 ftq x 5 modes x 2 pfc = 7680 > 4096.
    EXPECT_NE(
        parseError(
            R"({"workloads":"all","cores":[1,2,3,4,5,6,7,8],)"
            R"("ftq":[2,24],)"
            R"("mode":["base","asmdb","noovh","metadata","feedback"],)"
            R"("pfc":[true,false]})")
            .find("limit"),
        std::string::npos);
}

TEST(JobsSweep, CoresAndMixJsonRoundTrip)
{
    const SweepSpec with_cores = parseOk(
        R"({"workloads":["secret_srv12","secret_crypto52"],)"
        R"("cores":[1,4],"ftq":[2,24],"instructions":30000})");
    const SweepSpec cores_reparsed = parseOk(sweepSpecToJson(with_cores));
    EXPECT_EQ(sweepSpecToJson(cores_reparsed), sweepSpecToJson(with_cores));

    const SweepSpec with_mix = parseOk(
        R"({"mix":["secret_srv12","secret_int_124"],"mode":["base",)"
        R"("asmdb"],"instructions":30000})");
    const SweepSpec mix_reparsed = parseOk(sweepSpecToJson(with_mix));
    EXPECT_EQ(sweepSpecToJson(mix_reparsed), sweepSpecToJson(with_mix));

    const auto a = expandSweep(with_mix);
    const auto b = expandSweep(mix_reparsed);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].canonicalKey(), b[i].canonicalKey()) << i;
}

// --------------------------------------------------------- job store

namespace
{

/** A small mixed-state record: done, failed, and pending shards. */
JobRecord
makeMixedRecord(std::uint64_t id)
{
    JobRecord record;
    record.id = id;
    record.state = JobState::kRunning;
    std::string error;
    EXPECT_TRUE(parseSweepSpec(
        R"({"workloads":["secret_crypto52"],"ftq":[4,6,8],)"
        R"("instructions":30000})",
        record.spec, error))
        << error;
    const auto requests = expandSweep(record.spec);
    for (const auto &request : requests) {
        ShardRecord shard;
        shard.request = request;
        shard.key = request.canonicalKey();
        record.shards.push_back(std::move(shard));
    }
    record.shards[0].state = ShardState::kDone;
    record.shards[0].result = service::runSimRequest(requests[0]);
    record.shards[0].latency_us = 1234.5;
    record.shards[0].cached = true;
    record.shards[1].state = ShardState::kFailed;
    record.shards[1].error = "synthetic failure";
    return record;
}

} // namespace

TEST(JobsStore, SaveLoadRoundTripPreservesEverything)
{
    TempDir dir;
    const JobRecord record = makeMixedRecord(3);
    ASSERT_TRUE(saveJobRecord(dir.path, record));

    const auto paths = listJobRecordPaths(dir.path);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0], jobRecordPath(dir.path, 3));

    JobRecord loaded;
    ASSERT_TRUE(loadJobRecord(paths[0], loaded));
    EXPECT_EQ(loaded.id, 3u);
    // Non-terminal states persist as queued (resume semantics).
    EXPECT_EQ(loaded.state, JobState::kQueued);
    ASSERT_EQ(loaded.shards.size(), 3u);
    EXPECT_EQ(loaded.shards[0].state, ShardState::kDone);
    EXPECT_TRUE(loaded.shards[0].cached);
    EXPECT_EQ(loaded.shards[0].latency_us, 1234.5);
    EXPECT_EQ(loaded.shards[1].state, ShardState::kFailed);
    EXPECT_EQ(loaded.shards[1].error, "synthetic failure");
    EXPECT_EQ(loaded.shards[2].state, ShardState::kPending);

    // The completed result is preserved bit-exactly.
    std::ostringstream original;
    std::ostringstream reloaded;
    writeSimResultText(original, record.shards[0].result);
    writeSimResultText(reloaded, loaded.shards[0].result);
    EXPECT_EQ(original.str(), reloaded.str());
}

TEST(JobsStore, RunningStatesPersistAsResumable)
{
    TempDir dir;
    JobRecord record = makeMixedRecord(5);
    record.shards[2].state = ShardState::kRunning;
    ASSERT_TRUE(saveJobRecord(dir.path, record));

    // The file never contains the in-memory-only tokens.
    std::ifstream is(jobRecordPath(dir.path, 5));
    std::stringstream content;
    content << is.rdbuf();
    EXPECT_EQ(content.str().find(" running "), std::string::npos);

    JobRecord loaded;
    ASSERT_TRUE(loadJobRecord(jobRecordPath(dir.path, 5), loaded));
    EXPECT_EQ(loaded.shards[2].state, ShardState::kPending);
    EXPECT_EQ(loaded.state, JobState::kQueued);

    // A foreign writer's "running" token is tolerated and maps to
    // pending too.
    std::string text = content.str();
    const std::size_t pos = text.find("2 pending");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 9, "2 running");
    {
        std::ofstream os(jobRecordPath(dir.path, 5));
        os << text;
    }
    ASSERT_TRUE(loadJobRecord(jobRecordPath(dir.path, 5), loaded));
    EXPECT_EQ(loaded.shards[2].state, ShardState::kPending);
}

TEST(JobsStore, StaleVersionAndTruncationAreRejected)
{
    TempDir dir;
    const JobRecord record = makeMixedRecord(9);
    ASSERT_TRUE(saveJobRecord(dir.path, record));
    const std::string path = jobRecordPath(dir.path, 9);

    std::string text;
    {
        std::ifstream is(path);
        std::stringstream content;
        content << is.rdbuf();
        text = content.str();
    }

    JobRecord loaded;

    // Stale version.
    {
        std::string stale = text;
        const std::string magic =
            "sipre-job " + std::to_string(kJobRecordVersion);
        ASSERT_EQ(stale.rfind(magic, 0), 0u);
        stale.replace(0, magic.size(),
                      "sipre-job " +
                          std::to_string(kJobRecordVersion + 1));
        std::ofstream(path) << stale;
        EXPECT_FALSE(loadJobRecord(path, loaded));
    }

    // Wrong magic.
    {
        std::ofstream(path) << "sipre-cache 1\n";
        EXPECT_FALSE(loadJobRecord(path, loaded));
    }

    // Truncation anywhere in the payload must reject, never produce a
    // half-trusted record.
    for (const double frac : {0.25, 0.5, 0.9}) {
        const std::string cut = text.substr(
            0, static_cast<std::size_t>(
                   frac * static_cast<double>(text.size())));
        std::ofstream(path) << cut;
        EXPECT_FALSE(loadJobRecord(path, loaded))
            << "accepted a record truncated to " << cut.size()
            << " bytes";
    }

    // A forged shard key (expansion mismatch) rejects the file.
    {
        std::string forged = text;
        const std::size_t pos = forged.find("ftq=4");
        ASSERT_NE(pos, std::string::npos);
        forged.replace(pos, 5, "ftq=5");
        std::ofstream(path) << forged;
        EXPECT_FALSE(loadJobRecord(path, loaded));
    }

    // The original bytes still load (the fixture itself is valid).
    std::ofstream(path) << text;
    EXPECT_TRUE(loadJobRecord(path, loaded));
}

// ----------------------------------------------------- crash recovery

TEST(JobsManager, ResumeNeverRerunsCompletedShards)
{
    TempDir dir;

    // A 4-shard sweep; pretend a previous daemon finished shards 0 and
    // 1 (their results are real simulations), was killed mid-shard-2,
    // and never started shard 3.
    JobRecord record;
    record.id = 7;
    record.state = JobState::kRunning;
    std::string error;
    ASSERT_TRUE(parseSweepSpec(
        R"({"workloads":["secret_crypto52","secret_srv12"],)"
        R"("ftq":[4,6],"instructions":30000})",
        record.spec, error))
        << error;
    const auto requests = expandSweep(record.spec);
    ASSERT_EQ(requests.size(), 4u);
    std::vector<std::string> direct_results;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        ShardRecord shard;
        shard.request = requests[i];
        shard.key = requests[i].canonicalKey();
        record.shards.push_back(std::move(shard));
    }
    for (std::size_t i = 0; i < 2; ++i) {
        record.shards[i].state = ShardState::kDone;
        record.shards[i].result = service::runSimRequest(requests[i]);
        record.shards[i].latency_us = 1000.0;
        std::ostringstream os;
        writeSimResultText(os, record.shards[i].result);
        direct_results.push_back(os.str());
    }
    record.shards[2].state = ShardState::kRunning;
    ASSERT_TRUE(saveJobRecord(dir.path, record));

    // A fresh engine + manager over the store: the job resumes.
    service::EngineOptions engine_options;
    engine_options.workers = 2;
    service::SimulationEngine engine(engine_options);
    JobManagerOptions options;
    options.store_dir = dir.path;
    options.shard_workers = 2;
    JobManager manager(engine, options);
    EXPECT_EQ(manager.resumedJobs(), 1u);

    const JobProgress done = awaitTerminal(manager, 7);
    EXPECT_EQ(done.state, JobState::kCompleted);
    EXPECT_EQ(done.shards_total, 4u);
    EXPECT_EQ(done.shards_done, 4u);
    EXPECT_EQ(done.shards_failed, 0u);

    // The proof: only the two unfinished shards were simulated.
    EXPECT_EQ(engine.stats().sim_runs, 2u);

    // And the aggregated result carries all four shards, the reloaded
    // two bit-identical to their original runs.
    std::string json;
    ASSERT_EQ(manager.result(7, json), JobResultStatus::kOk);
    for (std::size_t i = 0; i < requests.size(); ++i)
        EXPECT_NE(json.find("\"index\":" + std::to_string(i) + ","),
                  std::string::npos);
    EXPECT_EQ(json.find("\"state\":\"skipped\""), std::string::npos);
    EXPECT_EQ(json.find("\"state\":\"failed\""), std::string::npos);

    // Checkpointed terminal record: yet another incarnation resumes
    // nothing and re-simulates nothing.
    manager.shutdown();
    JobManager second(engine, options);
    EXPECT_EQ(second.resumedJobs(), 0u);
    EXPECT_EQ(engine.stats().sim_runs, 2u);
    std::string json2;
    ASSERT_EQ(second.result(7, json2), JobResultStatus::kOk);
    EXPECT_EQ(json2, json);
}

// ------------------------------------------- cancel and backpressure

TEST(JobsManager, CancelBeforeExecutionSkipsEveryShard)
{
    service::SimulationEngine engine(service::EngineOptions{});
    JobManagerOptions options;
    options.shard_workers = 0; // never executes: deterministic cancel
    JobManager manager(engine, options);

    const SweepSpec spec = parseOk(
        R"({"workloads":["secret_crypto52"],"ftq":[4,6],)"
        R"("instructions":30000})");
    const JobSubmitOutcome outcome = manager.submit(spec);
    ASSERT_EQ(outcome.status, JobSubmitStatus::kOk);
    EXPECT_EQ(outcome.shards, 2u);

    std::string error;
    ASSERT_TRUE(manager.cancel(outcome.id, error)) << error;
    const auto progress = manager.progress(outcome.id);
    ASSERT_TRUE(progress.has_value());
    EXPECT_EQ(progress->state, JobState::kCancelled);
    EXPECT_EQ(engine.stats().sim_runs, 0u);

    // Cancelling again reports the terminal state.
    EXPECT_FALSE(manager.cancel(outcome.id, error));
    EXPECT_NE(error.find("cancelled"), std::string::npos);

    // The aggregated result marks every shard skipped.
    std::string json;
    ASSERT_EQ(manager.result(outcome.id, json), JobResultStatus::kOk);
    EXPECT_NE(json.find("\"state\":\"skipped\""), std::string::npos);
    EXPECT_EQ(json.find("\"state\":\"done\""), std::string::npos);

    EXPECT_EQ(manager.stats().cancelled, 1u);
}

TEST(JobsManager, MaxActiveJobsAppliesBackpressure)
{
    service::SimulationEngine engine(service::EngineOptions{});
    JobManagerOptions options;
    options.shard_workers = 0;
    options.max_active_jobs = 1;
    JobManager manager(engine, options);

    const SweepSpec spec = parseOk(
        R"({"workloads":["secret_crypto52"],"instructions":30000})");
    const JobSubmitOutcome first = manager.submit(spec);
    ASSERT_EQ(first.status, JobSubmitStatus::kOk);

    const JobSubmitOutcome second = manager.submit(spec);
    EXPECT_EQ(second.status, JobSubmitStatus::kRejected);
    EXPECT_NE(second.error.find("active jobs"), std::string::npos);
    EXPECT_EQ(manager.stats().rejected, 1u);

    // Finishing (here: cancelling) the active job frees the slot.
    std::string error;
    ASSERT_TRUE(manager.cancel(first.id, error)) << error;
    EXPECT_EQ(manager.submit(spec).status, JobSubmitStatus::kOk);

    // And after shutdown, submits report kShutdown.
    manager.shutdown();
    EXPECT_EQ(manager.submit(spec).status, JobSubmitStatus::kShutdown);
}

TEST(JobsManager, ProgressAndStatsTrackCompletion)
{
    service::SimulationEngine engine(service::EngineOptions{});
    JobManagerOptions options;
    options.shard_workers = 1;
    JobManager manager(engine, options);

    const SweepSpec spec = parseOk(
        R"({"workloads":["secret_crypto52"],"ftq":[4,6],)"
        R"("instructions":30000})");
    const JobSubmitOutcome outcome = manager.submit(spec);
    ASSERT_EQ(outcome.status, JobSubmitStatus::kOk);

    const JobProgress done = awaitTerminal(manager, outcome.id);
    EXPECT_EQ(done.state, JobState::kCompleted);
    EXPECT_EQ(done.shards_done, 2u);
    EXPECT_EQ(done.eta_s, 0.0);

    // Submitting the identical sweep again is served by the engine's
    // LRU: both shards complete as cache hits.
    const JobSubmitOutcome repeat = manager.submit(spec);
    ASSERT_EQ(repeat.status, JobSubmitStatus::kOk);
    const JobProgress warm = awaitTerminal(manager, repeat.id);
    EXPECT_EQ(warm.state, JobState::kCompleted);
    EXPECT_EQ(warm.shards_cached, 2u);
    EXPECT_EQ(engine.stats().sim_runs, 2u);

    const JobManagerStats stats = manager.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.shards_done, 4u);
    EXPECT_EQ(stats.shards_cached, 2u);
    EXPECT_EQ(stats.jobs_active, 0u);
    EXPECT_EQ(stats.jobs_total, 2u);
    EXPECT_EQ(stats.shard_latency_count, 4u);
    EXPECT_GT(stats.shard_latency_p99_us, 0u);

    const auto listed = manager.list();
    ASSERT_EQ(listed.size(), 2u);
    EXPECT_EQ(listed[0].id, outcome.id);
    EXPECT_EQ(listed[1].id, repeat.id);
}
