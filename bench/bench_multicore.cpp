/**
 * @file
 * Multi-core throughput benchmark: times the Simulator co-running the
 * workloads in groups of cores={1,2,4}, each core on its own rebased
 * trace, and reports simulated MIPS per core count.
 *
 * Emits one machine-readable JSON line on stdout:
 *   {"bench":"multicore", "workloads":..., "instructions":...,
 *    "per_cores":[{"cores":1,"seconds":...,"mips":...}, ...]}
 *
 * Environment knobs: SIPRE_WORKLOADS (default 8), SIPRE_INSTRUCTIONS
 * (default 1,000,000).
 */
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/simulator.hpp"
#include "multicore/multicore.hpp"
#include "trace/synth/workload.hpp"

namespace
{

std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    return std::strtoull(value, nullptr, 10);
}

double
seconds(const std::chrono::steady_clock::time_point t0,
        const std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main()
{
    using namespace sipre;

    const std::size_t workloads =
        static_cast<std::size_t>(envOr("SIPRE_WORKLOADS", 8));
    const std::size_t instructions =
        static_cast<std::size_t>(envOr("SIPRE_INSTRUCTIONS", 1'000'000));
    std::cerr << "[multicore] workloads=" << workloads
              << " instructions=" << instructions << "\n";

    const auto suite = synth::cvp1LikeSuite(workloads);
    std::vector<Trace> traces;
    traces.reserve(suite.size());
    for (const auto &spec : suite)
        traces.push_back(synth::generateTrace(spec, instructions));
    const SimConfig config = SimConfig::industry();

    // --- MIPS at cores={1,2,4}: co-run the workloads in groups -------
    std::cout << "{\"bench\":\"multicore\""
              << ",\"workloads\":" << traces.size()
              << ",\"instructions\":" << instructions
              << ",\"per_cores\":[";
    bool first = true;
    for (const std::size_t cores : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
        std::cerr << "[multicore] co-runs at cores=" << cores << "...\n";
        std::uint64_t simulated = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t base = 0; base + cores <= traces.size();
             base += cores) {
            // Rebased copies, like the real entry points: core i gets
            // its own address range.
            std::vector<Trace> rebased(traces.begin() + base,
                                       traces.begin() + base + cores);
            std::vector<const Trace *> group;
            for (std::size_t i = 0; i < cores; ++i) {
                rebased[i].rebase(i * kCoreAddressStride);
                group.push_back(&rebased[i]);
            }
            Simulator sim(config, group);
            simulated += sim.run().instructions;
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double secs = seconds(t0, t1);
        const double mips =
            secs > 0.0 ? static_cast<double>(simulated) / secs / 1e6
                       : 0.0;
        if (!first)
            std::cout << ",";
        first = false;
        std::cout << "{\"cores\":" << cores << ",\"seconds\":" << secs
                  << ",\"instructions_simulated\":" << simulated
                  << ",\"mips\":" << mips << "}";
    }
    std::cout << "]}\n";
    return 0;
}
