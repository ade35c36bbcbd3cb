/**
 * @file
 * Static/dynamic summary statistics over a trace: instruction mix,
 * footprint, branch composition. Used by tests (to verify that synthetic
 * workloads land in the paper's regime) and by the AsmDB profiler.
 */
#ifndef SIPRE_TRACE_TRACE_STATS_HPP
#define SIPRE_TRACE_TRACE_STATS_HPP

#include <array>
#include <cstdint>

#include "trace/trace.hpp"

namespace sipre
{

/** Aggregate statistics computed in a single pass over a trace. */
struct TraceStats
{
    std::uint64_t dynamic_instructions = 0;
    std::uint64_t static_instructions = 0;   ///< unique PCs
    std::uint64_t code_footprint_bytes = 0;  ///< sum of unique-PC sizes
    std::uint64_t code_footprint_lines = 0;  ///< unique 64B cache lines
    std::uint64_t branches = 0;
    std::uint64_t taken_branches = 0;
    std::uint64_t conditional_branches = 0;
    std::uint64_t calls = 0;
    std::uint64_t returns = 0;
    std::uint64_t indirect_branches = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t sw_prefetches = 0;
    std::array<std::uint64_t,
               static_cast<std::size_t>(InstClass::kNumClasses)>
        per_class{};

    /** Fraction of dynamic instructions that are branches. */
    double
    branchFraction() const
    {
        return dynamic_instructions == 0
                   ? 0.0
                   : double(branches) / double(dynamic_instructions);
    }
};

/** Compute TraceStats for a trace (single O(n log n) pass). */
TraceStats computeTraceStats(const Trace &trace);

/**
 * Verify structural trace invariants; returns true when the trace is
 * well formed:
 *  - taken control flow lands on its recorded target,
 *  - not-taken / sequential flow lands on pc + size,
 *  - unconditional branches are always taken,
 *  - memory classes carry an effective address, and a class that
 *    takes no address (addrKindOf) carries none.
 */
bool validateTrace(const Trace &trace, std::string *error = nullptr);

} // namespace sipre

#endif // SIPRE_TRACE_TRACE_STATS_HPP
