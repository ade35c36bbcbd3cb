/**
 * @file
 * sipre_perfbench: the repository benchmark's entry point.
 *
 *   sipre_perfbench --workload campaign|serve_hot|sweep_corun --seed N
 *                   --seconds S --trace 0|1 [--digests PATH]
 *                   [--out-dir DIR] [--instructions N]
 *   sipre_perfbench --write-digests PATH
 *
 * --instructions sets the trace length of campaign and sweep_corun, for
 * comparing the per-layer split across lengths; the digests hold only
 * the default lengths, so such a run checks nothing.
 *
 * With --trace 0 the last stdout line is one JSON object holding every
 * end-to-end metric; with --trace 1 it holds every per-layer metric (a
 * layer a workload does not run reports 0) and the run's spans are
 * written to DIR as Chrome trace-event JSON. Exit status 0 means the run
 * finished, whatever the correctness checks found; they are reported in
 * the result's `correct` / `failed` fields.
 */
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sched.h>

#include "bench.hpp"
#include "core/json_io.hpp"
#include "service/engine.hpp"
#include "spans.hpp"

namespace perfbench
{

namespace
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, in the order BENCHMARK.json lists them. */
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"sim_mips", "MIPS"},
    {"rps", "1/s"},          {"req_p50_ms", "ms"},
    {"req_p99_ms", "ms"},    {"shards_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

/** The per-layer metrics, in the order BENCHMARK.json lists them. */
constexpr MetricSpec kPerLayer[] = {
    {"trace.synth_ms", "ms"},
    {"trace.share", "fraction"},
    {"asmdb.pipeline_ms", "ms"},
    {"asmdb.plan_rewrite_ms", "ms"},
    {"asmdb.insertions", "count"},
    {"core.run_ms.cons", "ms"},
    {"core.run_ms.industry", "ms"},
    {"core.run_ms.asmdb_cons", "ms"},
    {"core.run_ms.asmdb_cons_ideal", "ms"},
    {"core.run_ms.asmdb_ind", "ms"},
    {"core.run_ms.asmdb_ind_ideal", "ms"},
    {"core.ns_per_cycle", "ns"},
    {"core.executed_cycle_frac", "fraction"},
    {"frontend.ns_per_cycle", "ns"},
    {"frontend.share", "fraction"},
    {"backend.ns_per_cycle", "ns"},
    {"backend.share", "fraction"},
    {"l1i.ns_per_cycle", "ns"},
    {"l1i.share", "fraction"},
    {"l1d.ns_per_cycle", "ns"},
    {"l1d.share", "fraction"},
    {"l2.ns_per_cycle", "ns"},
    {"l2.share", "fraction"},
    {"llc.ns_per_cycle", "ns"},
    {"llc.share", "fraction"},
    {"dram.ns_per_cycle", "ns"},
    {"dram.share", "fraction"},
    {"multicore.ns_per_cycle", "ns"},
    {"multicore.solo_overhead", "ratio"},
    {"multicore.dram_queue_p90", "requests"},
    {"multicore.port_queued_frac", "fraction"},
    {"hwpf.run_overhead", "ratio"},
    {"hwpf.issued", "count"},
    {"hwpf.accuracy", "fraction"},
    {"service.parse_us", "us"},
    {"service.key_us", "us"},
    {"service.serialize_us", "us"},
    {"service.submit_hit_us", "us"},
    {"service.submit_fresh_ms", "ms"},
    {"service.http_us", "us"},
    {"service.cache_hit_rate", "fraction"},
    {"service.coalesced", "count"},
    {"service.sim_runs", "count"},
    {"service.rejected", "count"},
    {"jobs.expand_us", "us"},
    {"jobs.checkpoint_ms", "ms"},
    {"jobs.record_kb", "KiB"},
    {"jobs.reload_ms", "ms"},
    {"jobs.shard_p50_ms", "ms"},
    {"jobs.shards_cached", "count"},
    {"model.ipc.cons", "IPC"},
    {"model.ipc.industry", "IPC"},
    {"model.ipc.asmdb_cons", "IPC"},
    {"model.ipc.asmdb_cons_ideal", "IPC"},
    {"model.ipc.asmdb_ind", "IPC"},
    {"model.ipc.asmdb_ind_ideal", "IPC"},
    {"model.l1i_mpki", "MPKI"},
    {"model.s2_per_kinsn", "cycles/kinsn"},
    {"self_ms.trace", "ms"},
    {"self_ms.asmdb", "ms"},
    {"self_ms.core", "ms"},
    {"self_ms.campaign", "ms"},
    {"self_ms.multicore", "ms"},
    {"self_ms.http", "ms"},
    {"self_ms.service", "ms"},
    {"self_ms.jobs", "ms"},
    {"trace_obs.overhead_frac", "fraction"},
};

/** Host threads this process may use (the affinity mask, like nproc). */
unsigned
availableThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "sipre_perfbench: " << why
              << "\nusage: sipre_perfbench --workload "
                 "campaign|serve_hot|sweep_corun --seed N --seconds S "
                 "--trace 0|1 [--digests PATH] [--out-dir DIR] "
                 "[--instructions N]\n"
                 "       sipre_perfbench --write-digests PATH\n";
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &value)
{
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " needs a non-negative integer, got '" + value + "'");
    return std::stoull(value);
}

/** Add each span layer's self time (ms) to the per-layer metrics. */
void
addSelfTimes(const Options &options, Outcome &out)
{
    const std::vector<SpanRecord> spans = collectSpans();
    for (const auto &[layer, time] : layerTimes(spans))
        out.add("self_ms." + layer, time.self_ms, "ms");
    std::filesystem::create_directories(options.out_dir);
    const std::string path = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".trace.json";
    if (!writeChromeTrace(path, spans))
        throw std::runtime_error("cannot write " + path);
    std::cerr << "[perfbench] " << spans.size() << " spans written to "
              << path << "\n";
}

/** The result line: every metric of the run's kind, in table order. */
std::string
resultLine(const Options &options, const Outcome &out)
{
    std::ostringstream os;
    os << "{\"correct\":" << (out.correct ? "true" : "false")
       << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
       << ",\"metrics\":{";
    bool first = true;
    const auto emit = [&](const MetricSpec &spec) {
        const Metric *found = nullptr;
        for (const Metric &m : out.metrics) {
            if (m.name == spec.name)
                found = &m;
        }
        if (found != nullptr && found->unit != spec.unit)
            throw std::logic_error(std::string("unit mismatch for ") +
                                   spec.name);
        if (found == nullptr && !options.trace)
            throw std::logic_error(std::string("missing metric ") +
                                   spec.name);
        os << (first ? "" : ",") << "\"" << spec.name
           << "\":{\"value\":" << sipre::jsonDouble(found ? found->value : 0)
           << ",\"unit\":\"" << spec.unit << "\"}";
        first = false;
    };
    if (options.trace) {
        for (const MetricSpec &spec : kPerLayer)
            emit(spec);
    } else {
        for (const MetricSpec &spec : kEndToEnd)
            emit(spec);
    }
    os << "}}";
    return os.str();
}

} // namespace

int
writeDigests(const std::string &path, unsigned threads)
{
    const auto suite = sipre::synth::cvp1LikeSuite();
    std::vector<std::string> lines(suite.size());
    std::atomic<std::size_t> next{0};
    const auto hex = [](std::uint64_t digest) {
        std::ostringstream os;
        os << std::hex << std::setw(16) << std::setfill('0') << digest;
        return os.str();
    };
    const auto worker = [&] {
        for (std::size_t i = next++; i < suite.size(); i = next++) {
            const auto &spec = suite[i];
            std::string text;
            const auto results = campaignReferenceResults(spec);
            for (std::size_t c = 0; c < results.size(); ++c)
                text += "campaign " + spec.name + " " + kCampaignConfigs[c] +
                        " " + hex(resultDigest(results[c])) + "\n";
            for (const std::uint32_t cores : kSweepCores) {
                for (const char *hwpf : kSweepPrefetchers) {
                    sipre::service::SimRequest request;
                    request.workload = spec.name;
                    request.instructions = kSweepInstructions;
                    request.cores = cores;
                    request.hw_prefetcher =
                        *sipre::parseHwPrefetcher(hwpf);
                    text += "sweep " + spec.name + " " +
                            sweepConfigName(cores, hwpf) + " " +
                            hex(resultDigest(
                                sipre::service::runSimRequest(request))) +
                            "\n";
                }
            }
            for (const std::uint32_t ftq : kHotFtq) {
                sipre::service::SimRequest request;
                request.workload = spec.name;
                request.instructions = kHotInstructions;
                request.ftq_entries = ftq;
                text += "serve " + spec.name + " " + serveConfigName(ftq) +
                        " " +
                        hex(textDigest(sipre::simResultToJson(
                            sipre::service::runSimRequest(request)))) +
                        "\n";
            }
            lines[i] = text;
            std::cerr << "[digests] " << spec.name << "\n";
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (auto &thread : pool)
        thread.join();

    std::ofstream os(path);
    os << "# Reference digests for perfbench: FNV-1a 64 of each result's\n"
          "# campaign-text form. campaign: core/experiment.cpp's recipe at "
       << kCampaignInstructions
       << " instructions with the reference loop (fast_forward=false).\n"
          "# sweep: service::runSimRequest at "
       << kSweepInstructions
       << " instructions.\n# serve: FNV-1a 64 of simResultToJson of "
          "service::runSimRequest at "
       << kHotInstructions
       << " instructions, the \"result\" of a /simulate reply.\n"
          "# Regenerate with sipre_perfbench --write-digests.\n";
    for (const std::string &text : lines)
        os << text;
    return os ? 0 : 1;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options;
    options.nproc = availableThreads();
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    std::string digests_out;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = parseUint(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            options.seconds = static_cast<double>(parseUint(flag, value));
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            options.trace = value == "1";
            have_trace = true;
        } else if (flag == "--digests") {
            options.digests_path = value;
        } else if (flag == "--instructions") {
            options.instructions = parseUint(flag, value);
            if (options.instructions < 1000)
                usage("--instructions must be at least 1000");
        } else if (flag == "--out-dir") {
            options.out_dir = value;
        } else if (flag == "--write-digests") {
            digests_out = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!digests_out.empty())
        return writeDigests(digests_out, options.nproc);
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (options.seconds < 1)
        usage("--seconds must be at least 1");

    try {
        Outcome out;
        if (options.workload == "campaign")
            out = runCampaign(options);
        else if (options.workload == "serve_hot")
            out = runServeHot(options);
        else if (options.workload == "sweep_corun")
            out = runSweepCorun(options);
        else
            usage("unknown workload " + options.workload);
        if (options.trace)
            addSelfTimes(options, out);
        std::cout << resultLine(options, out) << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "sipre_perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
