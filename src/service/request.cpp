#include "service/request.hpp"

#include <algorithm>
#include <type_traits>

#include "core/json_io.hpp"
#include "trace/synth/workload.hpp"

namespace sipre::service
{

std::vector<std::string>
SimRequest::effectiveMix() const
{
    if (!mix.empty())
        return mix;
    return std::vector<std::string>(cores, workload);
}

void
SimRequest::setMix(const std::vector<std::string> &names)
{
    cores = static_cast<std::uint32_t>(names.size());
    workload = names.front();
    mix.clear();
    if (std::any_of(names.begin(), names.end(),
                    [&](const std::string &w) { return w != workload; }))
        mix = names;
}

namespace
{

/** `knob` with the accessors of the SimRequest member `Field`. */
template <auto Field>
constexpr Knob
of(Knob knob)
{
    using Value = std::remove_cvref_t<decltype(SimRequest{}.*Field)>;
    knob.get = [](const SimRequest &request) {
        return static_cast<std::uint32_t>(request.*Field);
    };
    knob.set = [](SimRequest &request, std::uint32_t value) {
        request.*Field = static_cast<Value>(value);
    };
    return knob;
}

} // namespace

// distance_provider sits fifth in the key but innermost in sweeps: it
// was appended after sweeps had persisted the shard order of the rest.
constexpr std::array<Knob, kKnobCount> kKnobs = {
    of<&SimRequest::ftq_entries>({"ftq", Knob::Kind::kCount, 0, {}, 1, 512}),
    of<&SimRequest::mode>({"mode", Knob::Kind::kChoice, 1, kSimModeNames}),
    of<&SimRequest::predictor>(
        {"predictor", Knob::Kind::kChoice, 2, kPredictorNames}),
    of<&SimRequest::hw_prefetcher>(
        {"hw_prefetcher", Knob::Kind::kChoice, 3, kHwPrefetcherNames}),
    of<&SimRequest::distance_provider>({"distance_provider",
                                        Knob::Kind::kChoice, 7,
                                        kDistanceProviderNames}),
    of<&SimRequest::pfc>({"pfc", Knob::Kind::kFlag, 4}),
    of<&SimRequest::ghr_filter>({"ghr_filter", Knob::Kind::kFlag, 5}),
    of<&SimRequest::wrong_path>({"wrong_path", Knob::Kind::kFlag, 6}),
};

static_assert(
    [] {
        std::array<bool, kKnobCount> taken{};
        for (const Knob &knob : kKnobs)
            taken.at(knob.sweep_depth) = true;
        return std::find(taken.begin(), taken.end(), false) == taken.end();
    }(),
    "every knob needs its own sweep position");

bool
readCount(const JsonValue &value, std::string_view field, std::uint64_t min,
          std::uint64_t max, std::uint64_t &out, std::string &error)
{
    std::uint64_t n = 0;
    const bool integer = jsonToUint(value, n);
    if (integer && n >= min && n <= max) {
        out = n;
        return true;
    }
    error = "field '" + std::string(field) + "' " +
            (integer ? "out of range [" : "must be an integer in [") +
            std::to_string(min) + ", " + std::to_string(max) + "]";
    return false;
}

bool
readMix(const JsonValue &value, std::vector<std::string> &out,
        std::string &error)
{
    out.clear();
    for (const JsonValue &entry : value.array) {
        if (entry.isString())
            out.push_back(entry.string);
    }
    if (value.isArray() && !out.empty() &&
        out.size() == value.array.size() && out.size() <= kMaxCores)
        return true;
    error = "field 'mix' must be an array of 1 to " +
            std::to_string(kMaxCores) + " workload names";
    return false;
}

bool
Knob::read(const JsonValue &value, std::uint32_t &out,
           std::string &error) const
{
    std::uint64_t n = 0;
    switch (kind) {
    case Kind::kCount:
        if (!readCount(value, name, min, max, n, error))
            return false;
        out = static_cast<std::uint32_t>(n);
        return true;
    case Kind::kFlag:
        if (!value.isBool()) {
            error = "field '" + std::string(name) + "' must be " + accepted();
            return false;
        }
        out = value.boolean ? 1 : 0;
        return true;
    case Kind::kChoice:
        // A non-string value has an empty string, which names nothing.
        if (const auto parsed = parseEnumName(names, value.string)) {
            out = *parsed;
            return true;
        }
        error = (value.isString() ? "unknown " + std::string(name) + " '" +
                                        value.string + "'"
                                  : "field '" + std::string(name) +
                                        "' must be a string") +
                " (expected " + accepted() + ")";
        return false;
    }
    return false;
}

void
Knob::write(std::uint32_t value, bool json, std::string &out) const
{
    if (kind == Kind::kCount) {
        out += std::to_string(value);
    } else if (kind == Kind::kFlag) {
        out += json ? (value != 0 ? "true" : "false")
                    : (value != 0 ? "1" : "0");
    } else {
        const char *quote = json ? "\"" : "";
        out += quote;
        out += enumName(names, static_cast<std::uint8_t>(value));
        out += quote;
    }
}

std::string
Knob::accepted() const
{
    if (kind == Kind::kChoice)
        return enumChoices(names);
    if (kind == Kind::kFlag)
        return "a boolean";
    return "an integer in [" + std::to_string(min) + ", " +
           std::to_string(max) + "]";
}

const Knob *
findKnob(std::string_view name)
{
    for (const Knob &knob : kKnobs) {
        if (name == knob.name)
            return &knob;
    }
    return nullptr;
}

std::string
SimRequest::canonicalKey() const
{
    std::string key = "workload=" + workload +
                      "&instructions=" + std::to_string(instructions);
    for (const Knob &knob : kKnobs) {
        key += '&';
        key += knob.name;
        key += '=';
        knob.write(knob.get(*this), /*json=*/false, key);
    }
    key += "&cores=" + std::to_string(cores) + "&mix=";
    const std::vector<std::string> full = effectiveMix();
    for (std::size_t i = 0; i < full.size(); ++i) {
        if (i != 0)
            key += '+';
        key += full[i];
    }
    return key;
}

SimConfig
SimRequest::toConfig() const
{
    SimConfig config = SimConfig::industry();
    if (ftq_entries != config.frontend.ftq_entries)
        config = SimConfig::withFtqDepth(ftq_entries);
    config.frontend.branch.direction = predictor;
    config.memory.l1i_prefetcher = hw_prefetcher;
    config.frontend.pfc = pfc;
    config.frontend.branch.ghr_filter_btb_miss = ghr_filter;
    config.frontend.wrong_path_fetch = wrong_path;
    return config;
}

bool
parseSimRequest(const std::string &body, SimRequest &out, std::string &error)
{
    JsonValue doc;
    if (!parseJson(body, doc, error)) {
        error = "invalid JSON: " + error;
        return false;
    }
    if (!doc.isObject()) {
        error = "request body must be a JSON object";
        return false;
    }

    out = SimRequest{};
    bool have_workload = false;
    bool have_cores = false;
    std::vector<std::string> mix;
    for (const auto &[key, value] : doc.object) {
        if (key == "workload") {
            if (!value.isString()) {
                error = "field 'workload' must be a string";
                return false;
            }
            out.workload = value.string;
            have_workload = true;
        } else if (key == "instructions") {
            if (!readCount(value, key, kMinInstructions, kMaxInstructions,
                           out.instructions, error))
                return false;
        } else if (key == "cores") {
            std::uint64_t n = 0;
            if (!readCount(value, key, 1, kMaxCores, n, error))
                return false;
            out.cores = static_cast<std::uint32_t>(n);
            have_cores = true;
        } else if (key == "mix") {
            if (!readMix(value, mix, error))
                return false;
        } else if (const Knob *knob = findKnob(key)) {
            std::uint32_t encoded = 0;
            if (!knob->read(value, encoded, error))
                return false;
            knob->set(out, encoded);
        } else {
            error = "unknown field '" + key + "'";
            return false;
        }
    }
    if (!mix.empty()) {
        if (have_workload) {
            error = "fields 'workload' and 'mix' are mutually exclusive";
            return false;
        }
        if (have_cores && out.cores != mix.size()) {
            error = "field 'cores' (" + std::to_string(out.cores) +
                    ") contradicts the " + std::to_string(mix.size()) +
                    "-entry 'mix'";
            return false;
        }
        out.setMix(mix);
    } else if (!have_workload) {
        error = "missing required field 'workload'";
        return false;
    }

    // Validate every named workload against the synthesized suite.
    for (const std::string &name : out.effectiveMix()) {
        if (synth::findWorkload(name) == nullptr) {
            error = "unknown workload '" + name + "'";
            return false;
        }
    }
    return true;
}

std::string
requestToJson(const SimRequest &r)
{
    // `workload` and `mix` are mutually exclusive on the way in, so the
    // canonical echo spells whichever form the request reduces to.
    std::string out = r.mix.empty()
                          ? "{\"workload\":\"" + jsonEscape(r.workload) + "\""
                          : "{\"mix\":" + jsonStringArray(r.mix);
    out += ",\"instructions\":" + std::to_string(r.instructions);
    for (const Knob &knob : kKnobs) {
        out += ",\"";
        out += knob.name;
        out += "\":";
        knob.write(knob.get(r), /*json=*/true, out);
    }
    out += ",\"cores\":" + std::to_string(r.cores) + "}";
    return out;
}

} // namespace sipre::service
