#include "asmdb/extensions.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/simulator.hpp"

namespace sipre::asmdb
{

std::unordered_map<Addr, std::vector<Addr>>
buildMetadataMap(const AsmdbPlan &plan)
{
    std::unordered_map<Addr, std::vector<Addr>> metadata;
    for (const Insertion &ins : plan.insertions) {
        auto &targets = metadata[ins.site_pc & ~Addr{63}];
        if (std::find(targets.begin(), targets.end(), ins.target_line) ==
            targets.end()) {
            targets.push_back(ins.target_line);
        }
    }
    return metadata;
}

FeedbackResult
runFeedbackDirected(const Trace &trace, const SimConfig &config,
                    const AsmdbParams &params,
                    const FeedbackParams &feedback)
{
    FeedbackResult result;

    // Round 0: the standard AsmDB pipeline. Its profiling run's
    // per-line misses are the baseline each round is judged against.
    const AsmdbArtifacts artifacts = runPipeline(trace, config, params);
    const std::unordered_map<Addr, std::uint64_t> &profile_misses =
        artifacts.line_misses;
    result.decision = artifacts.decision;
    result.plan = artifacts.plan;
    result.insertions_per_round.push_back(result.plan.insertions.size());

    for (std::size_t round = 0; round < feedback.rounds; ++round) {
        // Evaluate the current plan in no-overhead form so line
        // addresses stay comparable with the profile.
        SwPrefetchTriggers triggers = buildTriggers(result.plan);
        std::unordered_map<Addr, std::uint64_t> eval_misses;
        {
            Simulator sim(config, trace);
            sim.setSwPrefetchTriggers(&triggers);
            sim.setL1iMissHook(
                [&eval_misses](Addr line) { ++eval_misses[line]; });
            sim.run();
        }

        // Drop targets whose misses did not improve enough: their
        // prefetches are overhead without benefit.
        std::unordered_set<Addr> dropped_targets;
        for (const Insertion &ins : result.plan.insertions) {
            auto before = profile_misses.find(ins.target_line);
            if (before == profile_misses.end() || before->second == 0)
                continue;
            const auto after_it = eval_misses.find(ins.target_line);
            const double after =
                after_it == eval_misses.end()
                    ? 0.0
                    : static_cast<double>(after_it->second);
            const double improvement =
                1.0 - after / static_cast<double>(before->second);
            if (improvement < feedback.required_improvement)
                dropped_targets.insert(ins.target_line);
        }
        if (dropped_targets.empty())
            break;

        std::vector<Insertion> kept;
        kept.reserve(result.plan.insertions.size());
        for (const Insertion &ins : result.plan.insertions) {
            if (dropped_targets.count(ins.target_line) == 0)
                kept.push_back(ins);
            else
                ++result.dropped_insertions;
        }
        result.plan.insertions = std::move(kept);
        result.insertions_per_round.push_back(
            result.plan.insertions.size());
    }

    const CodeLayout layout(result.plan);
    result.rewrite = rewriteTrace(trace, result.plan, layout);
    result.triggers = buildTriggers(result.plan);
    return result;
}

} // namespace sipre::asmdb
