#include "jobs/job_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/json_io.hpp"
#include "core/result_text.hpp"
#include "util/fsio.hpp"

namespace sipre::jobs
{

const char *
jobStateName(JobState state)
{
    switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    }
    return "unknown";
}

bool
jobStateIsTerminal(JobState state)
{
    return state == JobState::kCompleted || state == JobState::kFailed ||
           state == JobState::kCancelled;
}

std::size_t
JobRecord::doneShards() const
{
    return static_cast<std::size_t>(
        std::count_if(shards.begin(), shards.end(), [](const auto &s) {
            return s.state == ShardState::kDone;
        }));
}

std::size_t
JobRecord::failedShards() const
{
    return static_cast<std::size_t>(
        std::count_if(shards.begin(), shards.end(), [](const auto &s) {
            return s.state == ShardState::kFailed;
        }));
}

std::size_t
JobRecord::cachedShards() const
{
    return static_cast<std::size_t>(
        std::count_if(shards.begin(), shards.end(), [](const auto &s) {
            return s.state == ShardState::kDone && s.cached;
        }));
}

std::string
jobRecordPath(const std::string &dir, std::uint64_t id)
{
    return dir + "/job_" + std::to_string(id) + ".sipre";
}

namespace
{

const char *
shardStateToken(ShardState state)
{
    switch (state) {
    case ShardState::kPending: return "pending";
    // Running shards have no completed result to persist; after a crash
    // they must be re-executed, which is what pending means.
    case ShardState::kRunning: return "pending";
    case ShardState::kDone: return "done";
    case ShardState::kFailed: return "failed";
    }
    return "pending";
}

bool
parseShardState(const std::string &token, ShardState &state)
{
    if (token == "pending") {
        state = ShardState::kPending;
    } else if (token == "running") {
        // Tolerated on load (a foreign writer may persist it); maps to
        // pending for the same reason saves never emit it.
        state = ShardState::kPending;
    } else if (token == "done") {
        state = ShardState::kDone;
    } else if (token == "failed") {
        state = ShardState::kFailed;
    } else {
        return false;
    }
    return true;
}

bool
parseJobState(const std::string &token, JobState &state)
{
    for (const JobState candidate :
         {JobState::kQueued, JobState::kRunning, JobState::kCompleted,
          JobState::kFailed, JobState::kCancelled}) {
        if (token == jobStateName(candidate)) {
            state = candidate;
            return true;
        }
    }
    return false;
}

} // namespace

bool
saveJobRecord(const std::string &dir, const JobRecord &record)
{
    const std::string path = jobRecordPath(dir, record.id);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp);
        if (!os)
            return false;
        // A non-terminal job persists as queued: after a restart its
        // unfinished shards must be picked up again.
        const JobState state = record.state == JobState::kRunning
                                   ? JobState::kQueued
                                   : record.state;
        os << "sipre-job " << kJobRecordVersion << '\n';
        os << record.id << ' ' << jobStateName(state) << '\n';
        os << sweepSpecToJson(record.spec) << '\n';
        os << record.shards.size() << '\n';
        for (std::size_t i = 0; i < record.shards.size(); ++i) {
            const ShardRecord &shard = record.shards[i];
            os << i << ' ' << shardStateToken(shard.state) << ' '
               << (shard.cached ? 1 : 0) << ' '
               << jsonDouble(shard.latency_us) << ' ' << shard.key
               << '\n';
            if (shard.state == ShardState::kDone)
                writeSimResultText(os, shard.result);
            else if (shard.state == ShardState::kFailed)
                os << jsonEscape(shard.error) << '\n';
        }
        if (!os)
            return false;
    }
    // Durable publish: fsync the tmp file and the jobs directory
    // around the atomic rename. Rename alone is atomic against
    // concurrent readers but not against power loss — the completed
    // shards this record carries must survive a crash.
    return fsio::commitFile(tmp, path);
}

bool
loadJobRecord(const std::string &path, JobRecord &record)
{
    std::ifstream is(path);
    if (!is)
        return false;

    std::string magic;
    int version = 0;
    is >> magic >> version;
    if (magic != "sipre-job" || version != kJobRecordVersion)
        return false;

    record = JobRecord{};
    std::string state_token;
    is >> record.id >> state_token;
    if (!is || !parseJobState(state_token, record.state))
        return false;

    std::string spec_json;
    is >> std::ws;
    if (!std::getline(is, spec_json))
        return false;
    std::string error;
    if (!parseSweepSpec(spec_json, record.spec, error))
        return false;

    std::size_t shard_count = 0;
    is >> shard_count;
    if (!is)
        return false;
    const std::vector<service::SimRequest> requests =
        expandSweep(record.spec);
    if (shard_count != requests.size())
        return false;

    record.shards.resize(shard_count);
    std::size_t done = 0;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < shard_count; ++i) {
        ShardRecord &shard = record.shards[i];
        shard.request = requests[i];

        std::size_t index = 0;
        std::string shard_state;
        int cached = 0;
        is >> index >> shard_state >> cached >> shard.latency_us >>
            shard.key;
        if (!is || index != i ||
            !parseShardState(shard_state, shard.state) ||
            (cached != 0 && cached != 1))
            return false;
        shard.cached = cached == 1;
        // The persisted key must match the spec's expansion: a mismatch
        // means the expansion contract changed (or the file is forged)
        // and the stored per-shard results can't be trusted.
        if (shard.key != requests[i].canonicalKey())
            return false;

        if (shard.state == ShardState::kDone) {
            if (!readSimResultText(is, shard.result))
                return false;
            ++done;
        } else if (shard.state == ShardState::kFailed) {
            is >> std::ws;
            if (!std::getline(is, shard.error) || shard.error.empty())
                return false;
            ++failed;
        } else {
            shard.cached = false;
            shard.latency_us = 0.0;
        }
    }

    // A terminal state must be consistent with the shards it claims.
    if (record.state == JobState::kCompleted &&
        done + failed != shard_count)
        return false;
    if (!jobStateIsTerminal(record.state) && done + failed == shard_count)
        record.state = failed == 0 ? JobState::kCompleted
                                   : JobState::kFailed;
    return true;
}

std::vector<std::string>
listJobRecordPaths(const std::string &dir)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("job_", 0) == 0 &&
            name.size() > 10 /* job_*.sipre */ &&
            name.substr(name.size() - 6) == ".sipre")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

} // namespace sipre::jobs
