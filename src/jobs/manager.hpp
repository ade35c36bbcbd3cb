/**
 * @file
 * The asynchronous campaign-job layer between the HTTP surface and the
 * SimulationEngine: accepts sweep specs, expands them into
 * per-(workload, config) shards, and executes the shards through the
 * engine's result tiers (LRU → coalescing → workers) on a small pool
 * of shard-executor threads. Every shard completion checkpoints the
 * job's on-disk record, so a restarted daemon reloads the store and
 * resumes jobs without re-simulating finished shards. Jobs support
 * listing, progress with an ETA, cancellation, aggregated result
 * fetch, and a bounded number of concurrently active jobs with
 * backpressure.
 */
#ifndef SIPRE_JOBS_MANAGER_HPP
#define SIPRE_JOBS_MANAGER_HPP

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "jobs/job_store.hpp"
#include "jobs/sweep.hpp"
#include "service/engine.hpp"
#include "util/statistics.hpp"

namespace sipre::jobs
{

/** Sizing and persistence knobs. */
struct JobManagerOptions
{
    /**
     * Directory for persistent job records. Created if missing; empty
     * disables persistence (jobs live only as long as the process).
     */
    std::string store_dir;

    /** Bound on non-terminal jobs; submits past it are rejected. */
    std::size_t max_active_jobs = 4;

    /**
     * Threads feeding shards into the engine. Each occupies one engine
     * queue slot or worker while its shard runs. 0 is allowed and
     * means "never execute" — useful for store inspection and tests.
     */
    unsigned shard_workers = 2;
};

/** How a submit() call was resolved. */
enum class JobSubmitStatus : std::uint8_t {
    kOk,       ///< job accepted (and persisted when a store is set)
    kRejected, ///< max_active_jobs reached — backpressure, retry later
    kShutdown  ///< manager is stopping; no new jobs accepted
};

struct JobSubmitOutcome
{
    JobSubmitStatus status = JobSubmitStatus::kShutdown;
    std::uint64_t id = 0;     ///< valid when kOk
    std::size_t shards = 0;   ///< valid when kOk
    std::string error;        ///< set when not kOk
};

/** Point-in-time view of one job (for GET /jobs and GET /jobs/<id>). */
struct JobProgress
{
    std::uint64_t id = 0;
    JobState state = JobState::kQueued;
    std::size_t shards_total = 0;
    std::size_t shards_done = 0;   ///< includes failed shards
    std::size_t shards_failed = 0;
    std::size_t shards_cached = 0; ///< served by an engine cache tier
    /**
     * Seconds until completion, estimated from the mean observed shard
     * latency and the executor width. 0 when done or no sample yet.
     */
    double eta_s = 0.0;
};

/** How a result() call was resolved. */
enum class JobResultStatus : std::uint8_t {
    kOk,         ///< json set
    kUnknown,    ///< no such job
    kNotFinished ///< job not in a terminal state yet
};

/** Per-shard data the trace endpoint renders as counter tracks. */
struct ShardTraceInfo
{
    std::size_t index = 0;
    std::string workload;
    std::string config_label;
    ScenarioTimeline timeline;
};

/** Counters and gauges for /metrics. */
struct JobManagerStats
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t rejected = 0;       ///< backpressure rejections
    std::uint64_t resumed = 0;        ///< jobs reloaded unfinished
    std::uint64_t quarantined = 0;    ///< corrupt records set aside
    std::uint64_t shards_done = 0;    ///< successful shard completions
    std::uint64_t shards_failed = 0;
    std::uint64_t shards_cached = 0;  ///< of shards_done, cache-served
    std::uint64_t shards_proxied = 0; ///< of shards_done, peer-executed
    std::size_t jobs_active = 0;      ///< non-terminal jobs (gauge)
    std::size_t jobs_total = 0;       ///< jobs known (gauge)

    // Shard latency through the engine, microseconds (log2 buckets).
    std::uint64_t shard_latency_count = 0;
    double shard_latency_sum_us = 0.0;
    std::uint64_t shard_latency_p50_us = 0;
    std::uint64_t shard_latency_p90_us = 0;
    std::uint64_t shard_latency_p99_us = 0;
};

/** See file comment. Thread-safe. */
class JobManager
{
  public:
    /**
     * Binds to `engine` (not owned) and, when a store directory is
     * configured, reloads every readable record in it: terminal jobs
     * become fetchable history, unfinished jobs resume execution with
     * their completed shards intact. Unreadable (corrupt, truncated,
     * or forged) records are moved to `<store_dir>/quarantine/` — set
     * aside for inspection, never deleted, never blocking the rest of
     * the store from loading.
     */
    JobManager(service::SimulationEngine &engine,
               const JobManagerOptions &options);
    ~JobManager();

    JobManager(const JobManager &) = delete;
    JobManager &operator=(const JobManager &) = delete;

    /** Accept a validated sweep as a new job (non-blocking). */
    JobSubmitOutcome submit(const SweepSpec &spec);

    /** Progress for one job; nullopt when unknown. */
    std::optional<JobProgress> progress(std::uint64_t id) const;

    /** All known jobs, id-ascending. */
    std::vector<JobProgress> list() const;

    /**
     * Request cancellation. Pending shards are skipped; shards already
     * inside the engine finish and are recorded. Returns false (with
     * `error`) for unknown or already-terminal jobs.
     */
    bool cancel(std::uint64_t id, std::string &error);

    /**
     * Aggregated results of a terminal job as a JSON array: one
     * element per shard with its request, status, and (when done) the
     * bit-exact SimResult document.
     */
    JobResultStatus result(std::uint64_t id, std::string &json) const;

    /**
     * Scenario timelines of the job's completed shards (shards with no
     * recorded timeline are skipped), for GET /jobs/<id>/trace. Unlike
     * result() this works on a running job — a partial trace is still
     * a useful trace. Returns false for an unknown id.
     */
    bool traceInfo(std::uint64_t id,
                   std::vector<ShardTraceInfo> &out) const;

    JobManagerStats stats() const;

    /** Jobs that resumed from the store at construction. */
    std::uint64_t resumedJobs() const;

    /** Corrupt records moved to quarantine at construction. */
    std::uint64_t quarantinedRecords() const;

    /**
     * Stop the executors. Shards already submitted to the engine are
     * awaited and checkpointed; everything else stays pending in the
     * store for the next incarnation. Idempotent.
     */
    void shutdown();

  private:
    struct JobEntry
    {
        JobRecord record;
        bool cancel_requested = false;
        std::size_t shards_running = 0;
    };

    void executorLoop();
    /** Pick the next runnable (job, shard) pair, id/index order. */
    bool pickShardLocked(std::shared_ptr<JobEntry> &job,
                         std::size_t &shard_index);
    void finishJobIfDoneLocked(JobEntry &job);
    void checkpointLocked(const JobEntry &job);

    service::SimulationEngine &engine_;
    JobManagerOptions options_;

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;
    std::map<std::uint64_t, std::shared_ptr<JobEntry>> jobs_;
    std::uint64_t next_id_ = 1;
    bool stopping_ = false;

    // Counters (guarded by mutex_).
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t cancelled_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t resumed_ = 0;
    std::uint64_t quarantined_ = 0;
    std::uint64_t shards_done_ = 0;
    std::uint64_t shards_failed_ = 0;
    std::uint64_t shards_cached_ = 0;
    std::uint64_t shards_proxied_ = 0;
    Log2Histogram shard_latency_hist_;
    RunningStat shard_latency_stat_;

    std::vector<std::thread> executors_;
    std::mutex shutdown_mutex_;
    bool joined_ = false;
};

} // namespace sipre::jobs

#endif // SIPRE_JOBS_MANAGER_HPP
