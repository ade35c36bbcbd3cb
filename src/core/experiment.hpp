/**
 * @file
 * The standard evaluation campaign behind every figure in the paper:
 * for each workload, the six configurations of Fig. 1 (FTQ 2 and FTQ
 * 24, each with no software prefetching, with AsmDB, and with AsmDB
 * without insertion overhead), computed with the service's request
 * recipe (service::runAsmdbPass and service::runWithPass), plus the
 * Fig. 7 plan figures. Workloads run in parallel and results are
 * cached on disk so each per-figure benchmark binary can reuse one
 * computation.
 */
#ifndef SIPRE_CORE_EXPERIMENT_HPP
#define SIPRE_CORE_EXPERIMENT_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

// perfbench/stats.cpp reaches writeSimResultText through this header.
#include "core/result_text.hpp"
#include "core/sim_result.hpp"

namespace sipre
{

/** Campaign knobs (also settable via environment, see fromEnv()). */
struct CampaignOptions
{
    std::size_t workloads = 48;          ///< how many of the 48 to run
    std::size_t instructions = 2'000'000;///< trace length per workload
    unsigned threads = 0;                ///< 0 = hardware concurrency
    bool use_cache = true;               ///< reuse/persist results file
    std::string cache_dir = ".";

    /**
     * Read SIPRE_WORKLOADS / SIPRE_INSTRUCTIONS / SIPRE_THREADS /
     * SIPRE_NO_CACHE from the environment on top of the defaults.
     */
    static CampaignOptions fromEnv();
};

/**
 * All results for one workload across the six configurations. Each
 * equals service::runSimRequest's for the same (workload,
 * instructions, ftq, mode), labels included.
 */
struct WorkloadRecord
{
    std::string name;

    SimResult cons;             ///< conservative FDP (FTQ=2) baseline
    SimResult industry;         ///< industry FDP (FTQ=24) baseline
    SimResult asmdb_cons;       ///< AsmDB on conservative
    SimResult asmdb_cons_ideal; ///< AsmDB, no insertion overhead
    SimResult asmdb_ind;        ///< AsmDB + industry FDP
    SimResult asmdb_ind_ideal;  ///< AsmDB + FDP, no insertion overhead

    // Plan/bloat measurements (Fig. 7) of the FTQ-24 AsmDB pass.
    double static_bloat_ind = 0.0;
    double dynamic_bloat_ind = 0.0;
    std::uint64_t insertions_ind = 0;
    std::uint64_t plan_min_distance_ind = 0;
};

/** The whole campaign. */
struct CampaignResult
{
    CampaignOptions options;
    std::vector<WorkloadRecord> workloads;

    /** Geomean of per-workload (metric / conservative-IPC) speedups. */
    double geomeanSpeedup(SimResult WorkloadRecord::*config) const;
};

/**
 * Run (or load from cache) the standard campaign. Progress lines are
 * written to `progress` when non-null.
 */
CampaignResult runStandardCampaign(const CampaignOptions &options,
                                   std::ostream *progress = nullptr);

// ------------------------------------------------------- results cache
//
// The on-disk campaign cache is exposed so tests can exercise the
// round-trip directly and tools can inspect or pre-seed cache files.
// It stays beside the engine's result-cache file because a record's
// Fig. 7 plan figures are not part of any SimResult.

/** Bumped whenever the serialized layout changes; stale files reload. */
inline constexpr int kCampaignCacheVersion = 7;

/** File the campaign for `options` persists to / loads from. */
std::string campaignCachePath(const CampaignOptions &options);

/**
 * Load a previously saved campaign for `options`. Returns false (and
 * leaves `result` unspecified) on a missing file, a version or
 * workload-count mismatch, or a truncated/garbled payload.
 */
bool loadCampaign(const CampaignOptions &options, CampaignResult &result);

/** Persist `result` to campaignCachePath(options). Best-effort. */
void saveCampaign(const CampaignOptions &options,
                  const CampaignResult &result);

} // namespace sipre

#endif // SIPRE_CORE_EXPERIMENT_HPP
