/**
 * @file
 * Aggregated results of one simulation run: the raw material for every
 * figure in the paper's evaluation.
 */
#ifndef SIPRE_CORE_SIM_RESULT_HPP
#define SIPRE_CORE_SIM_RESULT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "branch/unit.hpp"
#include "frontend/frontend_stats.hpp"
#include "frontend/scenario_timeline.hpp"
#include "memory/cache.hpp"
#include "memory/dram.hpp"
#include "memory/iprefetcher.hpp"
#include "util/statistics.hpp"

namespace sipre
{

/**
 * Shared-memory contention counters of a multi-core run: the view of
 * the one LLC and DRAM that all cores contend for, with per-core
 * attribution. Empty (zero counters, empty vectors) on single-core
 * results.
 */
struct SharedMemStats
{
    CacheStats llc;          ///< the shared LLC (also per-core llc field)
    DramStats dram;          ///< the shared DRAM
    /** Demand hits/misses observed at the shared LLC, per core. */
    std::vector<std::uint64_t> llc_core_hits;
    std::vector<std::uint64_t> llc_core_misses;
    /** Memory-controller arbitration: round-robin grants per core port. */
    std::vector<std::uint64_t> port_grants;
    /** Requests that had to wait in a port queue (vs pass through). */
    std::vector<std::uint64_t> port_queued;
    /** DRAM queue occupancy, sampled once per executed shared tick. */
    Log2Histogram dram_queue_depth;
};

/** Everything measured during one Simulator::run(). */
struct SimResult
{
    std::string workload;
    std::string config_label;

    std::uint64_t instructions = 0; ///< retired instructions
    std::uint64_t cycles = 0;

    /**
     * Instructions counted for IPC purposes. When software prefetches
     * are inserted into the trace, the paper excludes them from the IPC
     * numerator ("We do not include the additional instructions AsmDB
     * inserts when calculating its IPC"), so this holds the original
     * (non-prefetch) instruction count.
     */
    std::uint64_t effective_instructions = 0;

    FrontendStats frontend;
    BackendStats backend;
    BranchUnitStats branch;
    BtbStats btb;
    CacheStats l1i;
    CacheStats l1d;
    CacheStats l2;
    CacheStats llc;

    /**
     * Per-component hardware instruction-prefetcher counters, in L1-I
     * installation order. Empty when no hardware prefetcher ran
     * (iprefetcher=none), which keeps pre-existing results and cache
     * keys byte-identical. coverage = useful / (useful + l1i.misses)
     * is computed at report time, where both counts are in hand.
     */
    std::vector<HwPrefetchCounters> hwpf;

    /**
     * Windowed FTQ-scenario attribution (empty with window_size 0
     * unless Simulator::enableScenarioTimeline was called — the
     * default, so cached results and differential runs are unaffected).
     */
    ScenarioTimeline scenario_timeline;

    /**
     * Multi-core co-run extension. Empty for single-core runs. When a
     * Simulator ran two or more cores, core_results holds one
     * full per-core SimResult (its llc field duplicates the shared LLC
     * stats) and the top level aggregates: instructions/effective are
     * sums, cycles is the slowest core, the cache/front-end/back-end
     * counters are element-wise sums, and llc is the shared LLC.
     */
    std::vector<SimResult> core_results;
    SharedMemStats shared_mem;

    /** Number of cores that produced this result. */
    std::uint32_t
    cores() const
    {
        return core_results.empty()
                   ? 1u
                   : static_cast<std::uint32_t>(core_results.size());
    }

    /** IPC over the paper's instruction accounting. */
    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(effective_instructions) /
                                 static_cast<double>(cycles);
    }

    /** L1-I demand misses per kilo (effective) instruction. */
    double
    l1iMpki() const
    {
        return effective_instructions == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(l1i.misses) /
                         static_cast<double>(effective_instructions);
    }

    /** Conditional-branch mispredictions per kilo-instruction. */
    double
    branchMpki() const
    {
        return effective_instructions == 0
                   ? 0.0
                   : 1000.0 *
                         static_cast<double>(branch.cond_mispredictions) /
                         static_cast<double>(effective_instructions);
    }
};

} // namespace sipre

#endif // SIPRE_CORE_SIM_RESULT_HPP
