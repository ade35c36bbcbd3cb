/**
 * @file
 * The service request schema: every knob `sipre_cli` accepts, parsed
 * from JSON with strict validation, default-filled, and canonicalized
 * into a stable key so identical work is recognized regardless of field
 * order, whitespace, or which defaults the client spelled out. The
 * config knobs are one table (kKnobs) that /simulate, sweep jobs and
 * `sipre_cli` all parse, key and expand from.
 */
#ifndef SIPRE_SERVICE_REQUEST_HPP
#define SIPRE_SERVICE_REQUEST_HPP

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/options.hpp"

namespace sipre
{
struct JsonValue;
} // namespace sipre

namespace sipre::service
{

/** One fully-validated simulation request (defaults = CLI defaults). */
struct SimRequest
{
    std::string workload = "secret_srv12";
    std::uint64_t instructions = 2'000'000;
    std::uint32_t ftq_entries = 24;
    SimMode mode = SimMode::kBase;
    DirectionPredictorKind predictor =
        DirectionPredictorKind::kHashedPerceptron;
    IPrefetcherKind hw_prefetcher = IPrefetcherKind::kNone;
    bool pfc = true;
    bool ghr_filter = true;
    bool wrong_path = true;
    /**
     * Where the AsmDB planner's prefetch distances come from. Only
     * consulted by the AsmDB-family modes (asmdb/noovh/metadata/
     * feedback); part of the canonical key for every request so a
     * provider change can never alias a cached result.
     */
    DistanceProviderKind distance_provider =
        DistanceProviderKind::kStatic;
    /** Core count; >1 routes through the multi-core simulator. */
    std::uint32_t cores = 1;
    /**
     * Per-core workload mix (heterogeneous co-runs). Empty means a
     * homogeneous run: `cores` copies of `workload`. When non-empty it
     * is authoritative — cores == mix.size() and workload == mix[0].
     */
    std::vector<std::string> mix;

    /** The per-core workload list, defaults expanded. */
    std::vector<std::string> effectiveMix() const;

    /**
     * Run `names`, one per core: sets `cores` and `workload` from it
     * and keeps it as `mix` only when the names differ, so a
     * homogeneous mix shares its key with the `cores` spelling.
     */
    void setMix(const std::vector<std::string> &names);

    /**
     * Canonical identity of the request: fixed field order, defaults
     * filled in, enums spelled with their canonical names. Two requests
     * that mean the same simulation produce the same key; any knob
     * difference produces a different key.
     */
    std::string canonicalKey() const;

    /**
     * The SimConfig this request runs under (sipre_cli's too): starts
     * from SimConfig::industry() and applies non-default knobs
     * (so the label stays "industry-ftq24" for the default depth and
     * becomes "ftqN" otherwise).
     */
    SimConfig toConfig() const;
};

/** Hard limits enforced during validation. */
inline constexpr std::uint64_t kMinInstructions = 1'000;
inline constexpr std::uint64_t kMaxInstructions = 100'000'000;
inline constexpr std::uint32_t kMaxCores = 8;

/**
 * One config knob: a SimRequest field that /simulate, sweep jobs and
 * `sipre_cli` read, key and expand through this entry alone. Its value
 * travels encoded as a std::uint32_t: a count as itself, a flag as
 * 1/0, a choice as its enum's underlying value.
 */
struct Knob
{
    enum class Kind : std::uint8_t {
        kCount,  ///< an integer in [min, max]
        kFlag,   ///< a boolean
        kChoice, ///< one of `names`
    };

    /**
     * The JSON field and the canonical-key field. The CLI flag is `--`
     * plus the name with `_` turned into `-`, or `--no-` plus that for
     * a flag that defaults to true.
     */
    const char *name;
    Kind kind;
    /** Position in a sweep's nesting, 0 outermost (jobs/sweep.hpp). */
    std::uint8_t sweep_depth;
    std::span<const EnumName> names = {}; ///< kChoice's names
    std::uint32_t min = 0;                ///< kCount's range
    std::uint32_t max = 0;                ///< kCount's range
    /** The field, encoded, and its setter. */
    std::uint32_t (*get)(const SimRequest &) = nullptr;
    void (*set)(SimRequest &, std::uint32_t) = nullptr;

    /** Read one JSON value; a failure's `error` says what it accepts. */
    bool read(const JsonValue &value, std::uint32_t &out,
              std::string &error) const;

    /** Append `value` in key form (1/0) or JSON form (true/false). */
    void write(std::uint32_t value, bool json, std::string &out) const;

    /** What the knob accepts, e.g. "an integer in [1, 512]". */
    std::string accepted() const;
};

/**
 * The config knobs in canonical-key order. Keys and request echoes are
 * persisted in this order and sweep shards in the nesting order, so a
 * new knob goes last in both.
 */
inline constexpr std::size_t kKnobCount = 8;
extern const std::array<Knob, kKnobCount> kKnobs;

/** The knob whose JSON field is `name`; nullptr for any other field. */
const Knob *findKnob(std::string_view name);

/**
 * Read the integer field `field` in [min, max]; on failure `error`
 * names the field and the range.
 */
bool readCount(const JsonValue &value, std::string_view field,
               std::uint64_t min, std::uint64_t max, std::uint64_t &out,
               std::string &error);

/** Read a `mix` field: an array of 1 to kMaxCores workload names. */
bool readMix(const JsonValue &value, std::vector<std::string> &out,
             std::string &error);

/**
 * Parse and validate a JSON request body. Accepted fields: `workload`
 * (required unless `mix` stands in for it), `instructions`, every knob
 * in kKnobs, `cores` and `mix`.
 * `mix` (an array of workload names, one per core) stands in for
 * `workload` and fixes the core count; `cores` alone replicates
 * `workload` across that many cores. Unknown fields, wrong types,
 * out-of-range values, and unknown workloads are rejected with a
 * specific message in `error`.
 */
bool parseSimRequest(const std::string &body, SimRequest &out,
                     std::string &error);

/** The request echoed back as canonical JSON (for service responses). */
std::string requestToJson(const SimRequest &request);

} // namespace sipre::service

#endif // SIPRE_SERVICE_REQUEST_HPP
