#include "jobs/sweep.hpp"

#include <algorithm>

#include "core/json_io.hpp"
#include "trace/synth/workload.hpp"

namespace sipre::jobs
{

using service::Knob;
using service::kKnobCount;
using service::kKnobs;

KnobAxes
defaultKnobAxes()
{
    const service::SimRequest defaults;
    KnobAxes axes;
    for (std::size_t i = 0; i < kKnobCount; ++i)
        axes[i] = {kKnobs[i].get(defaults)};
    return axes;
}

std::size_t
SweepSpec::shardCount() const
{
    std::size_t count = (mix.empty() ? workloads.size() : 1) * cores.size();
    for (const auto &axis : axes)
        count *= axis.size();
    return count;
}

namespace
{

/**
 * Collect the scalar-or-array field `value` into `items` through
 * `parseOne`, rejecting duplicates (they would create shards with
 * identical canonical keys) and empty arrays.
 */
template <typename T, typename ParseOne>
bool
parseAxis(const std::string &field, const JsonValue &value,
          std::vector<T> &items, ParseOne &&parseOne, std::string &error)
{
    items.clear();
    const auto add = [&](const JsonValue &element) {
        T parsed{};
        if (!parseOne(element, parsed))
            return false;
        if (std::find(items.begin(), items.end(), parsed) != items.end()) {
            error = "duplicate value in field '" + field + "'";
            return false;
        }
        items.push_back(parsed);
        return true;
    };
    if (value.kind == JsonValue::Kind::kArray) {
        if (value.array.empty()) {
            error = "field '" + field + "' must not be an empty array";
            return false;
        }
        for (const auto &element : value.array) {
            if (!add(element))
                return false;
        }
        return true;
    }
    return add(value);
}

/** Knob indices in sweep nesting order, outermost first. */
std::array<std::size_t, kKnobCount>
sweepOrder()
{
    std::array<std::size_t, kKnobCount> order{};
    for (std::size_t i = 0; i < kKnobCount; ++i)
        order[kKnobs[i].sweep_depth] = i;
    return order;
}

/**
 * Append `request` under every combination of the knobs at sweep
 * positions `depth` and deeper, innermost varying fastest.
 */
void
expandKnobs(const SweepSpec &spec,
            const std::array<std::size_t, kKnobCount> &order,
            std::size_t depth, service::SimRequest &request,
            std::vector<service::SimRequest> &shards)
{
    if (depth == kKnobCount) {
        shards.push_back(request);
        return;
    }
    const std::size_t k = order[depth];
    for (const std::uint32_t value : spec.axes[k]) {
        kKnobs[k].set(request, value);
        expandKnobs(spec, order, depth + 1, request, shards);
    }
}

} // namespace

bool
parseSweepSpec(const std::string &body, SweepSpec &out, std::string &error)
{
    JsonValue doc;
    if (!parseJson(body, doc, error)) {
        error = "invalid JSON: " + error;
        return false;
    }
    if (!doc.isObject()) {
        error = "sweep spec must be a JSON object";
        return false;
    }

    out = SweepSpec{};
    bool have_workloads = false;
    bool have_cores = false;
    for (const auto &[key, value] : doc.object) {
        if (key == "workloads") {
            have_workloads = true;
            if (value.isString() && value.string == "all") {
                out.workloads.clear();
                for (const auto &spec : synth::cvp1LikeSuite())
                    out.workloads.push_back(spec.name);
                continue;
            }
            if (!parseAxis(
                    key, value, out.workloads,
                    [&](const JsonValue &v, std::string &name) {
                        if (!v.isString()) {
                            error = "field 'workloads' must be \"all\" or "
                                    "an array of workload names";
                            return false;
                        }
                        name = v.string;
                        return true;
                    },
                    error))
                return false;
        } else if (key == "mix") {
            // Duplicates are legitimate here (a mix can co-run two
            // copies of one workload next to a third), so this does
            // not go through parseAxis.
            if (!service::readMix(value, out.mix, error))
                return false;
        } else if (key == "cores") {
            have_cores = true;
            if (!parseAxis(
                    key, value, out.cores,
                    [&](const JsonValue &v, std::uint32_t &n_cores) {
                        std::uint64_t n = 0;
                        if (!service::readCount(v, key, 1,
                                                service::kMaxCores, n,
                                                error))
                            return false;
                        n_cores = static_cast<std::uint32_t>(n);
                        return true;
                    },
                    error))
                return false;
        } else if (key == "instructions") {
            if (!service::readCount(value, key, service::kMinInstructions,
                                    service::kMaxInstructions,
                                    out.instructions, error))
                return false;
        } else if (const Knob *knob = service::findKnob(key)) {
            if (!parseAxis(
                    key, value, out.axes[knob - kKnobs.data()],
                    [&](const JsonValue &v, std::uint32_t &encoded) {
                        return knob->read(v, encoded, error);
                    },
                    error))
                return false;
        } else {
            error = "unknown field '" + key + "'";
            return false;
        }
    }
    if (!out.mix.empty()) {
        if (have_workloads) {
            error = "fields 'workloads' and 'mix' are mutually exclusive";
            return false;
        }
        if (have_cores) {
            error = "field 'cores' is implied by the 'mix' length";
            return false;
        }
        out.cores = {static_cast<std::uint32_t>(out.mix.size())};
    } else if (!have_workloads || out.workloads.empty()) {
        error = "missing required field 'workloads'";
        return false;
    }

    std::vector<std::string> all_names = out.workloads;
    all_names.insert(all_names.end(), out.mix.begin(), out.mix.end());
    for (const auto &name : all_names) {
        if (synth::findWorkload(name) == nullptr) {
            error = "unknown workload '" + name + "'";
            return false;
        }
    }

    if (out.shardCount() > kMaxShardsPerJob) {
        error = "sweep expands to " + std::to_string(out.shardCount()) +
                " shards (limit " + std::to_string(kMaxShardsPerJob) +
                ")";
        return false;
    }
    return true;
}

std::string
sweepSpecToJson(const SweepSpec &spec)
{
    std::string out;
    if (spec.mix.empty()) {
        std::vector<std::uint64_t> cores(spec.cores.begin(),
                                         spec.cores.end());
        out = "{\"workloads\":" + jsonStringArray(spec.workloads);
        out += ",\"cores\":" + jsonUIntArray(cores);
    } else {
        out = "{\"mix\":" + jsonStringArray(spec.mix);
    }
    out += ",\"instructions\":" + std::to_string(spec.instructions);
    for (const std::size_t i : sweepOrder()) {
        out += ",\"";
        out += kKnobs[i].name;
        out += "\":[";
        for (std::size_t j = 0; j < spec.axes[i].size(); ++j) {
            if (j != 0)
                out += ',';
            kKnobs[i].write(spec.axes[i][j], /*json=*/true, out);
        }
        out += ']';
    }
    out += '}';
    return out;
}

std::vector<service::SimRequest>
expandSweep(const SweepSpec &spec)
{
    // The machine outermost: (workload, cores) pairs for homogeneous
    // sweeps, or the single fixed mix, each crossed with every knob
    // combination. A homogeneous mix normalizes to the empty-mix
    // spelling so both share canonical keys with the equivalent
    // /simulate request.
    const std::array<std::size_t, kKnobCount> order = sweepOrder();
    std::vector<service::SimRequest> shards;
    shards.reserve(spec.shardCount());
    service::SimRequest request;
    request.instructions = spec.instructions;
    if (!spec.mix.empty()) {
        request.setMix(spec.mix);
        expandKnobs(spec, order, 0, request, shards);
        return shards;
    }
    for (const auto &workload : spec.workloads) {
        for (const std::uint32_t cores : spec.cores) {
            request.workload = workload;
            request.cores = cores;
            expandKnobs(spec, order, 0, request, shards);
        }
    }
    return shards;
}

} // namespace sipre::jobs
