/**
 * @file
 * Shared pieces of the repository benchmark: run options, the result
 * record every workload fills in, sample statistics, the committed
 * result digests, and the seeded workload selection.
 *
 * Every time here is host time (std::chrono::steady_clock) unless the
 * metric name starts with `model.`, which marks a simulated quantity.
 */
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/sim_result.hpp"
#include "trace/synth/workload.hpp"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from `start` to now. */
double secondsSince(Clock::time_point start);

/** Milliseconds between two time points. */
double msBetween(Clock::time_point start, Clock::time_point end);

/** Campaign-shape constants shared by the run and the digest writer. */
inline constexpr std::size_t kCampaignInstructions = 2'000'000;
inline constexpr std::size_t kSweepInstructions = 50'000;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Trace length of campaign and sweep_corun; 0 keeps the workload's
    /// own. The digests cover the default lengths only, so at any other
    /// the run checks nothing: it is a study of how the per-layer split
    /// depends on the length, not a benchmark run.
    std::size_t instructions = 0;
    std::string digests_path = "perfbench/digests.txt";
    std::string out_dir = ".bench_build/perfbench_out";
    unsigned nproc = 1; ///< host threads available, never exceeded
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything a workload run reports. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value, const std::string &unit);

    /** Count one failed operation and log why on stderr. */
    void fail(const std::string &why);

    /** Adopt `other`'s correctness counts (not its metrics). */
    void absorb(const Outcome &other);
};

/** The tail of a timing distribution, as serve_hot logs it. */
struct Latency
{
    std::size_t samples = 0;
    /// Highest of p50/p90/p99/p99.9 with at least ten samples beyond
    /// it, and its value.
    double tail_q = 0.0;
    double tail = 0.0;
};

/** Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty. */
double quantile(std::vector<double> values, double q);

/** Median; 0 when empty. */
double median(std::vector<double> values);

/** Mean; 0 when empty. */
double mean(const std::vector<double> &values);

Latency summarize(const std::vector<double> &values);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** FNV-1a 64 of `text`. */
std::uint64_t textDigest(std::string_view text);

/** FNV-1a 64 of the lossless campaign-text form of `result`. */
std::uint64_t resultDigest(const sipre::SimResult &result);

/**
 * The committed reference digests: `<kind> <workload> <config> <hex>`
 * per line. Keys are looked up as "kind/workload/config".
 */
class DigestTable
{
  public:
    bool load(const std::string &path, std::string &error);
    /** 0 when absent (no real digest is 0 in practice; absence fails). */
    std::uint64_t find(const std::string &kind, const std::string &workload,
                       const std::string &config) const;

  private:
    std::map<std::string, std::uint64_t> digests_;
};

/**
 * A seed-chosen subset of the 48-workload suite, stratified twice. By
 * archetype: each family contributes in proportion to its size (at
 * least one each), and the families are interleaved so any prefix of
 * the list stays mixed. By cost: a family's members, ordered from the
 * cheapest to the dearest record, are cut into as many equal bands as
 * the family contributes, and the seed picks one member of each band,
 * so every seed's subset spans the same range of record costs.
 */
std::vector<sipre::synth::WorkloadSpec>
stratifiedSubset(std::uint64_t seed, std::size_t count);

/** The campaign configurations, in WorkloadRecord order. */
inline constexpr const char *kCampaignConfigs[6] = {
    "cons",       "industry",  "asmdb_cons",
    "asmdb_cons_ideal", "asmdb_ind", "asmdb_ind_ideal"};

/** The sweep axes: cores x hw_prefetcher. */
inline constexpr std::uint32_t kSweepCores[2] = {1, 2};
inline constexpr const char *kSweepPrefetchers[2] = {"none", "fdip"};

/** Digest key of one sweep shard. */
std::string sweepConfigName(std::uint32_t cores, const std::string &hwpf);

/**
 * The serve_hot hot set: seeded workloads x these FTQ depths at this
 * trace length, 8 keys of 30k instructions like bench_service_throughput.
 */
inline constexpr std::size_t kHotWorkloads = 4;
inline constexpr std::uint64_t kHotInstructions = 30'000;
inline constexpr std::uint32_t kHotFtq[2] = {2, 24};

/** Digest key of one hot key's result document. */
std::string serveConfigName(std::uint32_t ftq);

/** Timed set-up repetitions per run; the median is reported. */
inline constexpr int kSetupRepeats = 11;

/**
 * Time `setup` `repeats` times and return the median, in seconds;
 * `teardown`, if given, runs untimed after each.
 */
double medianSetupSeconds(const std::function<void()> &setup,
                          const std::function<void()> &teardown = {},
                          int repeats = kSetupRepeats);

/** Untimed warm-up before every measured phase, seconds. */
inline constexpr double kWarmupSeconds = 1.0;

Outcome runCampaign(const Options &options);

/** One workload's six campaign results from the reference loop. */
std::array<sipre::SimResult, 6>
campaignReferenceResults(const sipre::synth::WorkloadSpec &spec);

Outcome runServeHot(const Options &options);
Outcome runSweepCorun(const Options &options);

/**
 * Regenerate the digest file: the campaign with the reference
 * (cycle-by-cycle) loop and every sweep shard through
 * service::runSimRequest, for every workload a seed can pick.
 */
int writeDigests(const std::string &path, unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
