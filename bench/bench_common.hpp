/**
 * @file
 * Shared scaffolding for the per-figure benchmark binaries: every
 * binary reproduces one exhibit of the paper from the same standard
 * campaign (cached on disk, parallel across workloads).
 *
 * Environment knobs: SIPRE_WORKLOADS (default 48), SIPRE_INSTRUCTIONS
 * (default 2,000,000), SIPRE_THREADS, SIPRE_NO_CACHE.
 */
#ifndef SIPRE_BENCH_BENCH_COMMON_HPP
#define SIPRE_BENCH_BENCH_COMMON_HPP

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/experiment.hpp"
#include "util/table.hpp"

namespace sipre::bench
{

/** Run (or load) the standard campaign with env-configured options. */
inline CampaignResult
standardCampaign()
{
    const CampaignOptions options = CampaignOptions::fromEnv();
    std::cerr << "[campaign] workloads=" << options.workloads
              << " instructions=" << options.instructions << "\n";
    return runStandardCampaign(options, &std::cerr);
}

/** Print an exhibit header in a uniform style. */
inline void
exhibitHeader(const std::string &id, const std::string &title,
              const std::string &expectation)
{
    std::cout << "==============================================="
                 "=================\n";
    std::cout << id << ": " << title << "\n";
    std::cout << "paper expectation: " << expectation << "\n";
    std::cout << "-----------------------------------------------"
                 "-----------------\n";
}

/**
 * Emit a table honoring SIPRE_CSV: CSV to stdout when set, aligned
 * text otherwise.
 */
inline void
emitTable(const Table &table)
{
    if (std::getenv("SIPRE_CSV") != nullptr)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
}

/** Events per kilo (effective) instruction, guarding divide-by-zero. */
inline double
perKiloInstr(std::uint64_t events, const SimResult &result)
{
    return result.effective_instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(events) /
                     static_cast<double>(result.effective_instructions);
}

} // namespace sipre::bench

#endif // SIPRE_BENCH_BENCH_COMMON_HPP
