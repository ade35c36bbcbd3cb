/**
 * @file
 * sipre command-line driver: run any workload under any configuration
 * and print the full characterization report. The scripting-friendly
 * entry point for one-off experiments.
 *
 * Usage:
 *   sipre_cli [--workload NAME] [--ftq N] [--instructions N]
 *             [--mode base|asmdb|noovh|metadata|feedback]
 *             [--predictor perceptron|tage|gshare|bimodal|local]
 *             [--hw-prefetcher none|nextline|eip]
 *             [--distance-provider static|profile|adaptive]
 *             [--profile-in PATH] [--result-out PATH]
 *             [--cores N] [--mix A,B,...]
 *             [--no-pfc] [--no-ghr-filter] [--no-wrong-path] [--json]
 *             [--save-trace PATH] [--load-trace PATH] [--list]
 *             [--trace-out PATH] [--scenario-window N] [--profile]
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include <vector>

#include "asmdb/extensions.hpp"
#include "asmdb/pipeline.hpp"
#include "core/experiment.hpp"
#include "core/json_io.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "core/simulator.hpp"
#include "core/trace_export.hpp"
#include "multicore/multicore.hpp"
#include "trace/champsim_import.hpp"
#include "trace/synth/workload.hpp"
#include "trace_obs/chrome_trace.hpp"
#include "trace_obs/recorder.hpp"
#include "util/profiler.hpp"

using namespace sipre;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --list                     list the 48 workloads and exit\n"
        "  --workload NAME            workload to run (default "
        "secret_srv12)\n"
        "  --ftq N                    FTQ depth (default 24)\n"
        "  --instructions N           trace length (default 2000000)\n"
        "  --mode MODE                %s\n"
        "  --predictor KIND           %s\n"
        "  --hw-prefetcher KIND       %s\n"
        "  --distance-provider KIND   where the AsmDB planner's prefetch\n"
        "                             distances come from (%s;\n"
        "                             default static)\n"
        "  --profile-in PATH          prior-run result (campaign text, as\n"
        "                             written by --result-out) feeding the\n"
        "                             'profile' distance provider\n"
        "  --result-out PATH          write the run's full result in the\n"
        "                             lossless campaign-text format (the\n"
        "                             profile half of the two-pass\n"
        "                             profile->instrument flow)\n"
        "  --cores N                  run N copies of the workload on N\n"
        "                             cores over a shared LLC/DRAM\n"
        "  --mix A,B,...              heterogeneous co-run: one core per\n"
        "                             named workload (implies --cores)\n"
        "  --no-pfc                   disable post-fetch correction\n"
        "  --no-ghr-filter            disable the GHR BTB-miss filter\n"
        "  --no-wrong-path            disable wrong-path shadow fetch\n"
        "  --json                     print the machine-readable JSON\n"
        "                             SimResult (same schema as the\n"
        "                             simulation service) instead of the\n"
        "                             report\n"
        "  --save-trace PATH          write the generated trace and exit\n"
        "  --load-trace PATH          run a previously saved trace\n"
        "  --load-champsim PATH       run a raw ChampSim-format trace\n"
        "  --trace-out PATH           write a Chrome trace-event JSON of\n"
        "                             the run (spans + per-window FTQ\n"
        "                             scenario tracks) to PATH; load it\n"
        "                             at ui.perfetto.dev. Implies\n"
        "                             --scenario-window 4096 unless set\n"
        "  --scenario-window N        record the FTQ scenario timeline\n"
        "                             with N-cycle windows (0 = off)\n"
        "  --profile                  attribute the run's wall-clock to\n"
        "                             per-component ticks (front-end,\n"
        "                             back-end, each cache level, DRAM)\n"
        "                             and print the table to stderr\n",
        argv0, kSimModeChoices, kPredictorChoices, kHwPrefetcherChoices,
        kDistanceProviderChoices);
    std::exit(1);
}

/** Structured invalid-argument diagnostic: message + exit code 2. */
int
badValue(const char *flag, const std::string &value, const char *choices)
{
    std::fprintf(stderr,
                 "sipre_cli: error: invalid %s '%s' (expected %s)\n",
                 flag, value.c_str(), choices);
    return 2;
}

/**
 * Persist a run's result in the lossless campaign-text format, the
 * profile half of the two-pass profile->instrument flow (the file is
 * what --profile-in reads back).
 */
bool
writeResultFile(const std::string &path, const SimResult &result)
{
    std::ofstream out(path, std::ios::trunc);
    if (out)
        writeSimResultText(out, result);
    if (!out) {
        std::fprintf(stderr,
                     "sipre_cli: error: cannot write result to %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "secret_srv12";
    std::string mode_name = "base";
    std::string save_path, load_path, champsim_path;
    std::string trace_out;
    std::string profile_in, result_out;
    std::uint32_t cores = 1;
    std::vector<std::string> mix;
    std::size_t instructions = 2'000'000;
    std::uint32_t scenario_window = 0;
    bool scenario_window_set = false;
    bool json = false;
    bool profile = false;
    SimConfig config = SimConfig::industry();
    asmdb::AsmdbParams aparams;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--list") {
            for (const auto &spec : synth::cvp1LikeSuite())
                std::printf("%s\n", spec.name.c_str());
            return 0;
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--ftq") {
            const std::string value = next();
            const auto n = parseUnsigned(value, ~std::uint32_t{0});
            if (!n)
                return badValue("--ftq", value, "an unsigned integer");
            // Labelled like SimRequest::toConfig: the default depth keeps
            // the industry label.
            const SimConfig industry = SimConfig::industry();
            config.frontend.ftq_entries =
                static_cast<std::uint32_t>(*n);
            config.label = *n == industry.frontend.ftq_entries
                               ? industry.label
                               : "ftq" + std::to_string(*n);
        } else if (arg == "--instructions") {
            const std::string value = next();
            const auto n = parseUnsigned(value);
            if (!n)
                return badValue("--instructions", value,
                                "an unsigned integer");
            instructions = *n;
        } else if (arg == "--mode") {
            mode_name = next();
        } else if (arg == "--predictor") {
            const std::string kind = next();
            const auto predictor = parsePredictor(kind);
            if (!predictor)
                return badValue("--predictor", kind, kPredictorChoices);
            config.frontend.branch.direction = *predictor;
        } else if (arg == "--hw-prefetcher") {
            const std::string kind = next();
            const auto prefetcher = parseHwPrefetcher(kind);
            if (!prefetcher)
                return badValue("--hw-prefetcher", kind,
                                kHwPrefetcherChoices);
            config.memory.l1i_prefetcher = *prefetcher;
        } else if (arg == "--distance-provider") {
            const std::string kind = next();
            const auto provider = parseDistanceProvider(kind);
            if (!provider)
                return badValue("--distance-provider", kind,
                                kDistanceProviderChoices);
            aparams.distance_provider = *provider;
        } else if (arg == "--profile-in") {
            profile_in = next();
        } else if (arg == "--result-out") {
            result_out = next();
        } else if (arg == "--cores") {
            const std::string value = next();
            const auto n = parseUnsigned(value, ~std::uint32_t{0});
            if (!n || *n < 1)
                return badValue("--cores", value,
                                "a positive integer");
            cores = static_cast<std::uint32_t>(*n);
        } else if (arg == "--mix") {
            const std::string value = next();
            mix.clear();
            std::size_t start = 0;
            while (start <= value.size()) {
                const std::size_t comma = value.find(',', start);
                const std::size_t end =
                    comma == std::string::npos ? value.size() : comma;
                if (end > start)
                    mix.push_back(value.substr(start, end - start));
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
            if (mix.empty())
                return badValue("--mix", value,
                                "a comma-separated workload list");
        } else if (arg == "--no-pfc") {
            config.frontend.pfc = false;
        } else if (arg == "--no-ghr-filter") {
            config.frontend.branch.ghr_filter_btb_miss = false;
        } else if (arg == "--no-wrong-path") {
            config.frontend.wrong_path_fetch = false;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--save-trace") {
            save_path = next();
        } else if (arg == "--load-trace") {
            load_path = next();
        } else if (arg == "--load-champsim") {
            champsim_path = next();
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--profile") {
            profile = true;
        } else if (arg == "--scenario-window") {
            const std::string value = next();
            const auto n = parseUnsigned(value, ~std::uint32_t{0});
            if (!n)
                return badValue("--scenario-window", value,
                                "an unsigned integer");
            scenario_window = static_cast<std::uint32_t>(*n);
            scenario_window_set = true;
        } else {
            usage(argv[0]);
        }
    }

    const auto mode = parseSimMode(mode_name);
    if (!mode)
        return badValue("--mode", mode_name, kSimModeChoices);

    // A prior run's serialized result (the campaign-text form written
    // by --result-out) feeds the 'profile' provider's distance model.
    SimResult external_profile;
    if (!profile_in.empty()) {
        std::ifstream in(profile_in);
        if (!in || !readSimResultText(in, external_profile)) {
            std::fprintf(stderr,
                         "sipre_cli: error: cannot read profile %s\n",
                         profile_in.c_str());
            return 1;
        }
        aparams.external_profile = &external_profile;
    }

    // --mix is the heterogeneous spelling of --cores: a single-entry
    // mix is just a workload, and an explicit --cores must agree with
    // the mix length.
    if (!mix.empty()) {
        if (cores != 1 && cores != mix.size()) {
            std::fprintf(stderr,
                         "sipre_cli: error: --cores %u contradicts the "
                         "%zu-entry --mix\n",
                         cores, mix.size());
            return 2;
        }
        cores = static_cast<std::uint32_t>(mix.size());
        workload = mix.front();
    }
    if (cores > 1 && (!save_path.empty() || !load_path.empty() ||
                      !champsim_path.empty())) {
        std::fprintf(stderr,
                     "sipre_cli: error: --cores/--mix only run the "
                     "synthesized workloads (no trace files)\n");
        return 2;
    }

    // --trace-out without an explicit window still gets a scenario
    // timeline: a trace with no counter tracks is rarely what was meant.
    if (!trace_out.empty() && !scenario_window_set)
        scenario_window = 4096;
    if (!trace_out.empty())
        trace_obs::Recorder::global().enable();
    if (profile)
        CycleProfiler::global().enable();

    // Obtain one trace per core. A trace file feeds the single core;
    // synthesized workloads are each a distinct process, rebased to
    // their own address range before AsmDB profiling (core 0 keeps
    // offset 0).
    std::vector<Trace> traces;
    traces.reserve(cores);
    if (!champsim_path.empty()) {
        traces.emplace_back();
        if (!importChampsimFile(champsim_path, traces.back(),
                                instructions)) {
            std::fprintf(stderr, "error: cannot import %s\n",
                         champsim_path.c_str());
            return 1;
        }
    } else if (!load_path.empty()) {
        traces.emplace_back();
        if (!traces.back().load(load_path)) {
            std::fprintf(stderr, "error: cannot load trace %s\n",
                         load_path.c_str());
            return 1;
        }
    } else {
        const auto suite = synth::cvp1LikeSuite();
        const std::vector<std::string> names =
            mix.empty() ? std::vector<std::string>(cores, workload) : mix;
        for (const std::string &name : names) {
            const synth::WorkloadSpec *spec = nullptr;
            for (const auto &s : suite) {
                if (s.name == name)
                    spec = &s;
            }
            if (spec == nullptr) {
                std::fprintf(stderr,
                             "error: unknown workload %s (try --list)\n",
                             name.c_str());
                return 1;
            }
            traces.push_back(synth::generateTrace(*spec, instructions));
            traces.back().rebase((traces.size() - 1) * kCoreAddressStride);
        }
    }
    if (!save_path.empty()) {
        if (!traces[0].save(save_path)) {
            std::fprintf(stderr, "error: cannot save trace to %s\n",
                         save_path.c_str());
            return 1;
        }
        std::printf("saved %zu instructions to %s\n", traces[0].size(),
                    save_path.c_str());
        return 0;
    }

    // Per-core AsmDB artifacts; rewritten-trace modes swap each core's
    // trace for its rewritten counterpart. Reserve up front: the swap
    // stores &artifacts.back().rewrite.trace mid-loop, so a vector grow
    // would dangle every earlier core's pointer. With --json the only
    // stdout output is the result document, so scripts can pipe it
    // straight into a JSON parser.
    std::vector<asmdb::AsmdbArtifacts> artifacts;
    std::vector<asmdb::FeedbackResult> feedback;
    artifacts.reserve(traces.size());
    feedback.reserve(traces.size());
    std::vector<const Trace *> run_traces;
    for (const Trace &t : traces)
        run_traces.push_back(&t);
    switch (*mode) {
    case SimMode::kBase:
        break;
    case SimMode::kAsmdb:
    case SimMode::kNoOverhead:
    case SimMode::kMetadata:
        for (std::size_t i = 0; i < traces.size(); ++i) {
            artifacts.push_back(
                asmdb::runPipeline(traces[i], config, aparams));
            const asmdb::AsmdbArtifacts &art = artifacts.back();
            if (!json) {
                std::printf("AsmDB plan: %zu insertions, static bloat "
                            "%.1f%%, dynamic bloat %.1f%%\n\n",
                            art.plan.insertions.size(),
                            100.0 * art.rewrite.staticBloat(),
                            100.0 * art.rewrite.dynamicBloat());
            }
            if (*mode == SimMode::kAsmdb)
                run_traces[i] = &art.rewrite.trace;
        }
        break;
    case SimMode::kFeedback:
        for (std::size_t i = 0; i < traces.size(); ++i) {
            feedback.push_back(
                asmdb::runFeedbackDirected(traces[i], config, aparams));
            const asmdb::FeedbackResult &fb = feedback.back();
            if (!json) {
                std::printf("feedback-directed: insertions per round:");
                for (const auto n : fb.insertions_per_round)
                    std::printf(" %zu", n);
                std::printf(" (dropped %llu)\n\n",
                            static_cast<unsigned long long>(
                                fb.dropped_insertions));
            }
            run_traces[i] = &fb.rewrite.trace;
        }
        break;
    }

    Simulator sim(config, run_traces);
    if (*mode == SimMode::kNoOverhead) {
        for (std::size_t i = 0; i < artifacts.size(); ++i)
            sim.setSwPrefetchTriggers(&artifacts[i].triggers, i);
    } else if (*mode == SimMode::kMetadata) {
        for (std::size_t i = 0; i < artifacts.size(); ++i)
            sim.attachMetadataPreloader(
                MetadataPreloadConfig{},
                asmdb::buildMetadataMap(artifacts[i].plan), i);
    }
    if (scenario_window != 0)
        sim.enableScenarioTimeline(scenario_window);
    const SimResult last_result = sim.run();
    if (json)
        std::printf("%s\n", simResultToJson(last_result).c_str());
    else
        printReport(last_result, std::cout);
    if (*mode == SimMode::kMetadata && !json) {
        for (std::size_t i = 0; i < artifacts.size(); ++i) {
            const auto *stats = sim.metadataStats(i);
            std::printf("\nmetadata preloader: %llu lookups, %llu L1 "
                        "hits, %llu fills, %llu prefetches\n",
                        static_cast<unsigned long long>(stats->lookups),
                        static_cast<unsigned long long>(stats->l1_hits),
                        static_cast<unsigned long long>(
                            stats->metadata_fills),
                        static_cast<unsigned long long>(
                            stats->prefetches_issued));
        }
    }
    // The per-component wall-clock table goes to stderr so --json keeps
    // stdout machine-readable.
    if (profile) {
        std::fprintf(stderr,
                     "[sipre_cli] busy-cycle profile (%s, %llu "
                     "cycles):\n%s",
                     last_result.workload.c_str(),
                     static_cast<unsigned long long>(last_result.cycles),
                     sim.profile().table(last_result.cycles).c_str());
    }

    if (!result_out.empty() && !writeResultFile(result_out, last_result))
        return 1;

    if (!trace_out.empty()) {
        std::vector<trace_obs::CounterSeries> series;
        if (last_result.scenario_timeline.enabled())
            series.push_back(scenarioCounterSeries(
                last_result.scenario_timeline,
                "ftq scenarios: " + last_result.workload + "/" +
                    last_result.config_label));
        const std::string doc = trace_obs::buildChromeTrace(
            trace_obs::Recorder::global(), /*job_filter=*/0, series,
            "sipre_cli");
        std::ofstream out(trace_out, std::ios::trunc);
        out << doc << '\n';
        if (!out) {
            std::fprintf(stderr, "error: cannot write trace to %s\n",
                         trace_out.c_str());
            return 1;
        }
        std::fprintf(stderr, "[sipre_cli] wrote trace to %s\n",
                     trace_out.c_str());
    }
    return 0;
}
