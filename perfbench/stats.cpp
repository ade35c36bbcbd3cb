#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string_view>

#include <sys/resource.h>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "util/rng.hpp"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - start).count();
}

void
Outcome::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Outcome::fail(const std::string &why)
{
    ++failed;
    correct = false;
    std::cerr << "[perfbench] FAILED: " << why << "\n";
}

void
Outcome::absorb(const Outcome &other)
{
    attempted += other.attempted;
    failed += other.failed;
    correct = correct && other.correct;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Nearest rank: the smallest sample with at least q of the samples
    // at or below it.
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index = rank < 1.0
                                  ? 0
                                  : std::min(values.size() - 1,
                                             static_cast<std::size_t>(rank) -
                                                 1);
    return values[index];
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

Latency
summarize(const std::vector<double> &values)
{
    Latency out;
    out.samples = values.size();
    out.tail_q = 0.50;
    out.tail = quantile(values, 0.50);
    for (const double q : {0.90, 0.99, 0.999}) {
        const double beyond = (1.0 - q) * static_cast<double>(values.size());
        if (beyond >= 10.0) {
            out.tail_q = q;
            out.tail = quantile(values, q);
        }
    }
    return out;
}

double
peakRssMb()
{
    struct rusage usage
    {
    };
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
textDigest(std::string_view text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
resultDigest(const sipre::SimResult &result)
{
    std::ostringstream os;
    sipre::writeSimResultText(os, result);
    return textDigest(os.str());
}

bool
DigestTable::load(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read digest file " + path;
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string kind, workload, config, hex;
        if (!(fields >> kind >> workload >> config >> hex)) {
            error = "garbled digest line: " + line;
            return false;
        }
        digests_[kind + "/" + workload + "/" + config] =
            std::stoull(hex, nullptr, 16);
    }
    if (digests_.empty()) {
        error = "no digests in " + path;
        return false;
    }
    return true;
}

std::uint64_t
DigestTable::find(const std::string &kind, const std::string &workload,
                  const std::string &config) const
{
    const auto it = digests_.find(kind + "/" + workload + "/" + config);
    return it == digests_.end() ? 0 : it->second;
}

namespace
{

/**
 * The 48 workloads from the cheapest to the dearest campaign record:
 * host time of the FTQ-2 and FTQ-24 base runs at 2M instructions,
 * measured once on a 4-vCPU Xeon VM. Only the order is used, to cut each
 * family into cost bands; a stale order makes the bands less even and
 * changes nothing that is checked.
 */
constexpr std::array<std::string_view, 48> kCostOrder = {
    "secret_crypto80", "secret_int_706",  "secret_srv764",
    "secret_int_44",   "secret_srv757",   "secret_int_624",
    "secret_srv742",   "secret_int_124",  "secret_srv727",
    "secret_int_86",   "secret_srv48",    "secret_srv504",
    "secret_srv73",    "secret_int_290",  "secret_int_327",
    "secret_srv225",   "secret_int_678",  "secret_srv702",
    "secret_srv12",    "secret_srv426",   "secret_srv32",
    "secret_srv255",   "secret_crypto90", "secret_srv21",
    "secret_srv194",   "secret_srv41",    "secret_int_83",
    "secret_srv537",   "secret_srv540",   "secret_srv495",
    "secret_srv669",   "secret_int_948",  "secret_srv85",
    "secret_srv641",   "secret_srv617",   "secret_srv222",
    "secret_int_965",  "secret_srv442",   "secret_srv207",
    "secret_int_155",  "secret_srv771",   "secret_srv61",
    "secret_srv408",   "secret_srv128",   "secret_srv582",
    "secret_srv259",   "public_srv_60",   "secret_crypto52",
};

/** Position of `name` in kCostOrder; unknown names sort last. */
std::size_t
costRank(const std::string &name)
{
    const auto it = std::find(kCostOrder.begin(), kCostOrder.end(), name);
    return static_cast<std::size_t>(it - kCostOrder.begin());
}

} // namespace

std::vector<sipre::synth::WorkloadSpec>
stratifiedSubset(std::uint64_t seed, std::size_t count)
{
    const auto suite = sipre::synth::cvp1LikeSuite();
    sipre::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<std::vector<sipre::synth::WorkloadSpec>> families(3);
    for (const auto &spec : suite)
        families[static_cast<std::size_t>(spec.archetype)].push_back(spec);

    // Each family's share: its proportional part rounded down, at least
    // one, then the largest remainders until the shares add up.
    std::vector<std::size_t> share(3);
    std::vector<double> remainder(3);
    std::size_t total = 0;
    for (std::size_t f = 0; f < 3; ++f) {
        const double exact = static_cast<double>(families[f].size() * count) /
                             static_cast<double>(suite.size());
        share[f] = std::min(families[f].size(),
                            std::max<std::size_t>(1, std::floor(exact)));
        remainder[f] = exact - static_cast<double>(share[f]);
        total += share[f];
    }
    while (total < count) {
        std::size_t best = 3;
        for (std::size_t f = 0; f < 3; ++f) {
            if (share[f] < families[f].size() &&
                (best == 3 || remainder[f] > remainder[best]))
                best = f;
        }
        if (best == 3)
            break;
        ++share[best];
        remainder[best] -= 1.0;
        ++total;
    }

    std::vector<std::vector<sipre::synth::WorkloadSpec>> picked(3);
    for (std::size_t f = 0; f < 3; ++f) {
        auto &family = families[f];
        std::stable_sort(family.begin(), family.end(),
                         [](const auto &a, const auto &b) {
                             return costRank(a.name) < costRank(b.name);
                         });
        // One member of each cost band, drawn with the repo's own
        // generator, so the choice is fixed by the seed on every
        // platform.
        for (std::size_t b = 0; b < share[f]; ++b) {
            const std::size_t lo = b * family.size() / share[f];
            const std::size_t hi = (b + 1) * family.size() / share[f];
            picked[f].push_back(family[lo + rng.below(hi - lo)]);
        }
    }
    // Interleave in proportion: repeatedly take from the family that is
    // furthest behind its share of the list so far.
    std::vector<sipre::synth::WorkloadSpec> out;
    std::vector<std::size_t> taken(3, 0);
    while (out.size() < count) {
        std::size_t best = 3;
        double best_lag = -1.0;
        for (std::size_t f = 0; f < 3; ++f) {
            if (taken[f] >= picked[f].size())
                continue;
            const double lag = static_cast<double>(picked[f].size()) *
                                   static_cast<double>(out.size() + 1) /
                                   static_cast<double>(count) -
                               static_cast<double>(taken[f]);
            if (lag > best_lag) {
                best_lag = lag;
                best = f;
            }
        }
        if (best == 3)
            break;
        out.push_back(picked[best][taken[best]++]);
    }
    return out;
}

double
medianSetupSeconds(const std::function<void()> &setup,
                   const std::function<void()> &teardown, int repeats)
{
    std::vector<double> seconds;
    for (int i = 0; i < repeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        setup();
        seconds.push_back(secondsSince(t0));
        if (teardown)
            teardown();
    }
    return median(seconds);
}

std::string
sweepConfigName(std::uint32_t cores, const std::string &hwpf)
{
    return "cores" + std::to_string(cores) + "-" + hwpf;
}

std::string
serveConfigName(std::uint32_t ftq)
{
    return "ftq" + std::to_string(ftq);
}

} // namespace perfbench
