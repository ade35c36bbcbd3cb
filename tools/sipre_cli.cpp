/**
 * @file
 * sipre command-line driver: run any workload under any configuration
 * and print the full characterization report. The scripting-friendly
 * entry point for one-off experiments.
 *
 * Usage: sipre_cli [options]; an unknown option prints them all. Every
 * config knob of /simulate is a flag with the service's values and
 * ranges: `--` plus the knob's name with `_` turned into `-`, or
 * `--no-` plus that for a boolean that defaults to true (the knob table
 * in service/request.hpp).
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/json_io.hpp"
#include "core/options.hpp"
#include "core/report.hpp"
#include "core/trace_export.hpp"
#include "service/engine.hpp"
#include "service/request.hpp"
#include "trace/champsim_import.hpp"
#include "trace/synth/workload.hpp"
#include "trace_obs/chrome_trace.hpp"
#include "trace_obs/recorder.hpp"
#include "util/profiler.hpp"

using namespace sipre;
using service::Knob;

namespace
{

/** A knob's flag: see Knob::name. */
std::string
flagOf(const Knob &knob)
{
    std::string flag = knob.name;
    std::replace(flag.begin(), flag.end(), '_', '-');
    const bool negated = knob.kind == Knob::Kind::kFlag &&
                         knob.get(service::SimRequest{}) != 0;
    return (negated ? "--no-" : "--") + flag;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --list                     list the 48 workloads and exit\n"
        "  --workload NAME            workload to run (default "
        "secret_srv12)\n"
        "  --instructions N           trace length (default 2000000)\n"
        "  --cores N                  run N copies of the workload on N\n"
        "                             cores over a shared LLC/DRAM\n"
        "  --mix A,B,...              heterogeneous co-run: one core per\n"
        "                             named workload (implies --cores)\n"
        "  --profile-in PATH          prior-run result (campaign text, as\n"
        "                             written by --result-out) feeding the\n"
        "                             'profile' distance provider\n"
        "  --result-out PATH          write the run's full result in the\n"
        "                             lossless campaign-text format (the\n"
        "                             profile half of the two-pass\n"
        "                             profile->instrument flow)\n"
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
        "                             and print the table to stderr\n"
        "config knobs, the /simulate fields of the same name "
        "(docs/SERVICE.md):\n",
        argv0);
    const service::SimRequest defaults;
    for (const Knob &knob : service::kKnobs) {
        if (knob.kind == Knob::Kind::kFlag) {
            std::fprintf(stderr, "  %-26s set %s to %s\n",
                         flagOf(knob).c_str(), knob.name,
                         knob.get(defaults) != 0 ? "false" : "true");
            continue;
        }
        std::string fallback;
        knob.write(knob.get(defaults), /*json=*/false, fallback);
        std::fprintf(stderr, "  %-26s %s (default %s)\n",
                     (flagOf(knob) + " VALUE").c_str(),
                     knob.accepted().c_str(), fallback.c_str());
    }
    std::exit(1);
}

/** Structured invalid-argument diagnostic: message + exit code 2. */
int
badValue(const std::string &flag, const std::string &value,
         const std::string &expected)
{
    std::fprintf(stderr,
                 "sipre_cli: error: invalid %s '%s' (expected %s)\n",
                 flag.c_str(), value.c_str(), expected.c_str());
    return 2;
}

/**
 * A count flag's value in [min, max], the range /simulate accepts;
 * nullopt after printing the diagnostic (exit code 2).
 */
std::optional<std::uint64_t>
countFlag(const std::string &flag, const std::string &value,
          std::uint64_t min, std::uint64_t max)
{
    const auto n = parseUnsigned(value, max);
    if (n && *n >= min)
        return n;
    badValue(flag, value,
             "an integer in [" + std::to_string(min) + ", " +
                 std::to_string(max) + "]");
    return std::nullopt;
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
    service::SimRequest request;
    std::vector<std::string> mix;
    std::string save_path, load_path, champsim_path;
    std::string trace_out;
    std::string profile_in, result_out;
    std::uint32_t scenario_window = 0;
    bool scenario_window_set = false;
    bool json = false;
    bool profile = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        const auto knob = std::find_if(
            service::kKnobs.begin(), service::kKnobs.end(),
            [&](const Knob &k) { return arg == flagOf(k); });
        if (knob != service::kKnobs.end() &&
            knob->kind == Knob::Kind::kFlag) {
            // A boolean's flag sets the value it does not default to.
            knob->set(request, knob->get(service::SimRequest{}) == 0);
        } else if (knob != service::kKnobs.end()) {
            // The value reads as /simulate reads its JSON field: a
            // count as a number, a choice as a string.
            const std::string value = next();
            JsonValue field;
            std::string error;
            if (knob->kind == Knob::Kind::kChoice ||
                !parseJson(value, field, error)) {
                field.kind = JsonValue::Kind::kString;
                field.string = value;
            }
            std::uint32_t encoded = 0;
            if (!knob->read(field, encoded, error))
                return badValue(arg, value, knob->accepted());
            knob->set(request, encoded);
        } else if (arg == "--list") {
            for (const auto &spec : synth::cvp1LikeSuite())
                std::printf("%s\n", spec.name.c_str());
            return 0;
        } else if (arg == "--workload") {
            request.workload = next();
        } else if (arg == "--instructions") {
            const auto n = countFlag(arg, next(), service::kMinInstructions,
                                     service::kMaxInstructions);
            if (!n)
                return 2;
            request.instructions = *n;
        } else if (arg == "--cores") {
            const auto n = countFlag(arg, next(), 1, service::kMaxCores);
            if (!n)
                return 2;
            request.cores = static_cast<std::uint32_t>(*n);
        } else if (arg == "--mix") {
            const std::string value = next();
            std::istringstream names(value);
            mix.clear();
            for (std::string name; std::getline(names, name, ',');) {
                if (!name.empty())
                    mix.push_back(name);
            }
            if (mix.empty() || mix.size() > service::kMaxCores)
                return badValue(arg, value,
                                "1 to " +
                                    std::to_string(service::kMaxCores) +
                                    " comma-separated workload names");
        } else if (arg == "--profile-in") {
            profile_in = next();
        } else if (arg == "--result-out") {
            result_out = next();
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
                return badValue(arg, value, "an unsigned integer");
            scenario_window = static_cast<std::uint32_t>(*n);
            scenario_window_set = true;
        } else {
            usage(argv[0]);
        }
    }
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
    }

    // --mix is the heterogeneous spelling of --cores: a single-entry
    // mix is just a workload, and an explicit --cores must agree with
    // the mix length.
    if (!mix.empty()) {
        if (request.cores != 1 && request.cores != mix.size()) {
            std::fprintf(stderr,
                         "sipre_cli: error: --cores %u contradicts the "
                         "%zu-entry --mix\n",
                         request.cores, mix.size());
            return 2;
        }
        request.setMix(mix);
    }
    if (request.cores > 1 && (!save_path.empty() || !load_path.empty() ||
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

    // Obtain one trace per core: a trace file feeds the single core,
    // otherwise the service's step 1 synthesizes every mix entry.
    std::vector<Trace> traces;
    if (!champsim_path.empty()) {
        traces.emplace_back();
        if (!importChampsimFile(champsim_path, traces.back(),
                                request.instructions)) {
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
        try {
            traces = service::synthesizeTraces(request);
        } catch (const std::exception &e) {
            // e.what() is "unknown workload NAME".
            std::fprintf(stderr, "error: %s (try --list)\n", e.what());
            return 1;
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

    const service::RunReport run = service::runRecipe(
        request, traces, scenario_window,
        profile_in.empty() ? nullptr : &external_profile);
    const SimResult &last_result = run.result;
    // With --json the only stdout output is the result document, so
    // scripts can pipe it straight into a JSON parser.
    if (json) {
        std::printf("%s\n", simResultToJson(last_result).c_str());
    } else {
        for (const service::RunReport::CorePlan &core : run.cores) {
            if (request.mode == SimMode::kFeedback) {
                std::printf("feedback-directed: insertions per round:");
                for (const auto n : core.insertions_per_round)
                    std::printf(" %zu", n);
                std::printf(" (dropped %llu)\n\n",
                            static_cast<unsigned long long>(
                                core.dropped_insertions));
            } else {
                std::printf("AsmDB plan: %zu insertions, static bloat "
                            "%.1f%%, dynamic bloat %.1f%%\n\n",
                            core.insertions, 100.0 * core.static_bloat,
                            100.0 * core.dynamic_bloat);
            }
        }
        printReport(last_result, std::cout);
        for (const service::RunReport::CorePlan &core : run.cores) {
            const MetadataPreloadStats &stats = core.preloader;
            if (request.mode != SimMode::kMetadata)
                continue;
            std::printf("\nmetadata preloader: %llu lookups, %llu L1 "
                        "hits, %llu fills, %llu prefetches\n",
                        static_cast<unsigned long long>(stats.lookups),
                        static_cast<unsigned long long>(stats.l1_hits),
                        static_cast<unsigned long long>(
                            stats.metadata_fills),
                        static_cast<unsigned long long>(
                            stats.prefetches_issued));
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
                     run.profile.table(last_result.cycles).c_str());
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
