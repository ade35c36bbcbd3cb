#include "core/experiment.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "service/engine.hpp"
#include "trace/synth/workload.hpp"
#include "util/statistics.hpp"

namespace sipre
{

namespace
{

/**
 * Parse a size from the environment. Only fully numeric values are
 * accepted; anything else (including trailing junk like "100k") keeps
 * the fallback and warns on stderr, so a typo degrades loudly instead
 * of silently running a different experiment.
 */
std::size_t
envSize(const char *name, std::size_t fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    for (const char *p = value; *p != '\0'; ++p) {
        if (!std::isdigit(static_cast<unsigned char>(*p))) {
            std::cerr << "[sipre] ignoring " << name << "='" << value
                      << "': not a non-negative integer, using "
                      << fallback << "\n";
            return fallback;
        }
    }
    return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

} // namespace

std::string
campaignCachePath(const CampaignOptions &options)
{
    std::ostringstream oss;
    oss << options.cache_dir << "/sipre_campaign_v"
        << kCampaignCacheVersion << "_w" << options.workloads << "_i"
        << options.instructions << ".cache";
    return oss.str();
}

bool
loadCampaign(const CampaignOptions &options, CampaignResult &result)
{
    std::ifstream is(campaignCachePath(options));
    if (!is)
        return false;
    std::size_t n = 0;
    int version = 0;
    is >> version >> n;
    if (version != kCampaignCacheVersion || n != options.workloads)
        return false;
    result.workloads.resize(n);
    for (auto &rec : result.workloads) {
        is >> rec.name;
        for (SimResult *r : {&rec.cons, &rec.industry, &rec.asmdb_cons,
                             &rec.asmdb_cons_ideal, &rec.asmdb_ind,
                             &rec.asmdb_ind_ideal})
            readSimResultText(is, *r);
        is >> rec.static_bloat_ind >> rec.dynamic_bloat_ind >>
            rec.insertions_ind >> rec.plan_min_distance_ind;
    }
    return static_cast<bool>(is);
}

void
saveCampaign(const CampaignOptions &options, const CampaignResult &result)
{
    std::ofstream os(campaignCachePath(options));
    if (!os)
        return;
    // Doubles (bloat ratios, latency sums) must survive the text
    // round-trip exactly; max_digits10 guarantees that.
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << kCampaignCacheVersion << ' ' << result.workloads.size() << '\n';
    for (const auto &rec : result.workloads) {
        os << rec.name << '\n';
        for (const SimResult *r :
             {&rec.cons, &rec.industry, &rec.asmdb_cons,
              &rec.asmdb_cons_ideal, &rec.asmdb_ind, &rec.asmdb_ind_ideal})
            writeSimResultText(os, *r);
        os << rec.static_bloat_ind << ' ' << rec.dynamic_bloat_ind << ' '
           << rec.insertions_ind << ' ' << rec.plan_min_distance_ind
           << '\n';
    }
}

namespace
{

/**
 * One workload's record through the service's recipe: the trace is
 * synthesized once, and per FTQ depth one AsmDB pass (profiled on the
 * machine it targets) whose profiling run is the base result, then the
 * run step for `asmdb` and for `noovh`. Six simulations in all.
 */
WorkloadRecord
runRecord(const std::string &name, std::size_t instructions)
{
    WorkloadRecord rec;
    rec.name = name;
    service::SimRequest request;
    request.workload = name;
    request.instructions = instructions;
    const std::vector<Trace> traces = service::synthesizeTraces(request);

    const auto depth = [&](std::uint32_t ftq, SimResult &base,
                           SimResult &asmdb, SimResult &noovh) {
        request.ftq_entries = ftq;
        request.mode = SimMode::kAsmdb;
        const service::AsmdbPass pass =
            service::runAsmdbPass(request, traces);
        base = pass.artifacts[0].profile_run;
        asmdb = service::runWithPass(request, traces, pass).result;
        request.mode = SimMode::kNoOverhead;
        noovh = service::runWithPass(request, traces, pass).result;
        return pass.cores[0];
    };
    depth(2, rec.cons, rec.asmdb_cons, rec.asmdb_cons_ideal);
    const service::RunReport::CorePlan plan =
        depth(24, rec.industry, rec.asmdb_ind, rec.asmdb_ind_ideal);
    rec.static_bloat_ind = plan.static_bloat;
    rec.dynamic_bloat_ind = plan.dynamic_bloat;
    rec.insertions_ind = plan.insertions;
    rec.plan_min_distance_ind = plan.min_distance;
    return rec;
}

} // namespace

CampaignOptions
CampaignOptions::fromEnv()
{
    CampaignOptions options;
    options.workloads = envSize("SIPRE_WORKLOADS", options.workloads);
    options.instructions =
        envSize("SIPRE_INSTRUCTIONS", options.instructions);
    options.threads =
        static_cast<unsigned>(envSize("SIPRE_THREADS", options.threads));
    if (std::getenv("SIPRE_NO_CACHE") != nullptr)
        options.use_cache = false;
    return options;
}

double
CampaignResult::geomeanSpeedup(SimResult WorkloadRecord::*config) const
{
    std::vector<double> speedups;
    speedups.reserve(workloads.size());
    for (const auto &rec : workloads) {
        const double base = rec.cons.ipc();
        const double ipc = (rec.*config).ipc();
        if (base > 0.0 && ipc > 0.0)
            speedups.push_back(ipc / base);
    }
    return geomean(speedups);
}

CampaignResult
runStandardCampaign(const CampaignOptions &options, std::ostream *progress)
{
    CampaignResult result;
    result.options = options;

    if (options.use_cache && loadCampaign(options, result)) {
        if (progress) {
            *progress << "[campaign] loaded " << result.workloads.size()
                      << " workloads from cache\n";
        }
        return result;
    }
    result.workloads.clear();

    const auto suite = synth::cvp1LikeSuite(options.workloads);
    result.workloads.resize(suite.size());

    unsigned threads = options.threads;
    if (threads == 0) {
        threads = std::max(1u, std::thread::hardware_concurrency());
        threads = std::min<unsigned>(
            threads, static_cast<unsigned>(suite.size()));
    }

    std::mutex io_mutex;
    std::size_t next = 0;
    std::mutex next_mutex;

    auto worker = [&]() {
        for (;;) {
            std::size_t index;
            {
                std::lock_guard<std::mutex> lock(next_mutex);
                if (next >= suite.size())
                    return;
                index = next++;
            }
            result.workloads[index] =
                runRecord(suite[index].name, options.instructions);
            if (progress) {
                std::lock_guard<std::mutex> lock(io_mutex);
                *progress << "[campaign] " << suite[index].name
                          << " done (cons "
                          << result.workloads[index].cons.ipc()
                          << " IPC, industry "
                          << result.workloads[index].industry.ipc()
                          << " IPC)\n";
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (auto &thread : pool)
        thread.join();

    if (options.use_cache)
        saveCampaign(options, result);
    return result;
}

} // namespace sipre
