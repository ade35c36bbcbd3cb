/**
 * @file
 * Host-throughput benchmark for the event-driven fast-forward path:
 * runs the standard campaign twice — once with the reference
 * cycle-by-cycle loop (SIPRE_NO_SKIP set around it), once with cycle
 * skipping — verifies the results are bit-identical, and reports
 * wall-clock seconds, simulated MIPS, and the speedup as one
 * machine-readable JSON line on stdout.
 *
 * The campaign cache is bypassed (both runs compute from scratch), so
 * the numbers measure simulation itself. Environment knobs:
 * SIPRE_WORKLOADS, SIPRE_INSTRUCTIONS, SIPRE_THREADS.
 */
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "core/experiment.hpp"
#include "core/result_compare.hpp"

namespace
{

/** The six recorded configurations per workload (see WorkloadRecord). */
constexpr std::uint64_t kConfigsPerWorkload = 6;

struct TimedCampaign
{
    sipre::CampaignResult result;
    double seconds = 0.0;
};

/**
 * Sets SIPRE_NO_SKIP for its lifetime, so every Simulator::run in that
 * scope takes the reference loop.
 */
struct ReferenceLoopScope
{
    ReferenceLoopScope() { ::setenv("SIPRE_NO_SKIP", "1", 1); }
    ~ReferenceLoopScope() { ::unsetenv("SIPRE_NO_SKIP"); }
    ReferenceLoopScope(const ReferenceLoopScope &) = delete;
    ReferenceLoopScope &operator=(const ReferenceLoopScope &) = delete;
};

TimedCampaign
timeCampaign(sipre::CampaignOptions options)
{
    options.use_cache = false;
    TimedCampaign timed;
    const auto t0 = std::chrono::steady_clock::now();
    timed.result = sipre::runStandardCampaign(options);
    const auto t1 = std::chrono::steady_clock::now();
    timed.seconds = std::chrono::duration<double>(t1 - t0).count();
    return timed;
}

/** Retired instructions across the recorded configurations. */
std::uint64_t
instructionsSimulated(const sipre::CampaignResult &campaign)
{
    std::uint64_t total = 0;
    for (const auto &rec : campaign.workloads) {
        for (const sipre::SimResult *r :
             {&rec.cons, &rec.industry, &rec.asmdb_cons,
              &rec.asmdb_cons_ideal, &rec.asmdb_ind,
              &rec.asmdb_ind_ideal}) {
            total += r->instructions;
        }
    }
    return total;
}

} // namespace

int
main()
{
    const sipre::CampaignOptions options =
        sipre::CampaignOptions::fromEnv();
    std::cerr << "[throughput] standard campaign, workloads="
              << options.workloads << " instructions="
              << options.instructions << " (cache bypassed)\n";

    std::cerr << "[throughput] reference cycle-by-cycle run...\n";
    const TimedCampaign ref = [&] {
        const ReferenceLoopScope reference;
        return timeCampaign(options);
    }();
    std::cerr << "[throughput] fast-forward (cycle skipping) run...\n";
    const TimedCampaign ffw = timeCampaign(options);

    // The speedup is only meaningful if the skipping run computed the
    // exact same campaign.
    bool identical = ref.result.workloads.size() ==
                     ffw.result.workloads.size();
    for (std::size_t i = 0; identical && i < ref.result.workloads.size();
         ++i) {
        const auto &a = ref.result.workloads[i];
        const auto &b = ffw.result.workloads[i];
        for (const auto config :
             {&sipre::WorkloadRecord::cons, &sipre::WorkloadRecord::industry,
              &sipre::WorkloadRecord::asmdb_cons,
              &sipre::WorkloadRecord::asmdb_cons_ideal,
              &sipre::WorkloadRecord::asmdb_ind,
              &sipre::WorkloadRecord::asmdb_ind_ideal}) {
            const std::string diff =
                sipre::diffSimResults(a.*config, b.*config);
            if (!diff.empty()) {
                identical = false;
                std::cerr << "[throughput] MISMATCH " << a.name << ": "
                          << diff << "\n";
            }
        }
    }

    const std::uint64_t instructions = instructionsSimulated(ref.result);
    const double ref_mips =
        ref.seconds > 0.0
            ? static_cast<double>(instructions) / ref.seconds / 1e6
            : 0.0;
    const double skip_mips =
        ffw.seconds > 0.0
            ? static_cast<double>(instructions) / ffw.seconds / 1e6
            : 0.0;
    const double speedup =
        ffw.seconds > 0.0 ? ref.seconds / ffw.seconds : 0.0;

    std::cout << "{\"bench\":\"throughput\""
              << ",\"workloads\":" << ref.result.workloads.size()
              << ",\"instructions\":" << options.instructions
              << ",\"configs\":" << kConfigsPerWorkload
              << ",\"instructions_simulated\":" << instructions
              << ",\"ref_seconds\":" << ref.seconds
              << ",\"skip_seconds\":" << ffw.seconds
              << ",\"ref_mips\":" << ref_mips
              << ",\"skip_mips\":" << skip_mips
              << ",\"speedup\":" << speedup
              << ",\"identical\":" << (identical ? "true" : "false")
              << "}\n";
    return identical ? 0 : 1;
}
