/**
 * @file
 * Shared knob parsing for every entry point: the CLI, the service, and
 * the bench tools all speak the same strings for modes, predictors, and
 * hardware prefetchers, so a request means the same thing everywhere.
 */
#ifndef SIPRE_CORE_OPTIONS_HPP
#define SIPRE_CORE_OPTIONS_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "branch/direction_predictor.hpp"
#include "memory/iprefetcher.hpp"

namespace sipre
{

/** The five run modes of sipre_cli / the simulation service. */
enum class SimMode : std::uint8_t {
    kBase,       ///< plain run of the original trace
    kAsmdb,      ///< AsmDB-rewritten trace (with insertion overhead)
    kNoOverhead, ///< AsmDB triggers without inserted instructions
    kMetadata,   ///< metadata-preloader extension (paper Sec. VI)
    kFeedback    ///< feedback-directed AsmDB
};

/**
 * Where the AsmDB planner's prefetch distances come from (the
 * provider/policy split of the insertion pipeline). `static` is the
 * paper's fixed IPC×latency rule; `profile` derives distances from a
 * prior run's miss rates and Scenario-2 attribution (the two-pass
 * profile→instrument flow); `adaptive` searches per-target distances
 * that minimize Scenario-2 occupancy in evaluation runs.
 */
enum class DistanceProviderKind : std::uint8_t {
    kStatic,   ///< fixed IPC × miss-latency distance (the default)
    kProfile,  ///< distances fed back from a prior simulation's profile
    kAdaptive, ///< per-target tuning against Scenario-2 occupancy
};

/**
 * One canonical spelling of an enum value. The value is kept as the
 * enum's underlying byte so one array type serves every enum; each
 * enum's names live in one array in options.cpp, listed in the order
 * usage text and error messages show them.
 */
struct EnumName
{
    template <typename Enum>
        requires std::is_enum_v<Enum>
    constexpr EnumName(const char *spelling, Enum enumerator)
        : name(spelling), value(static_cast<std::uint8_t>(enumerator))
    {
    }

    const char *name;
    std::uint8_t value;
};

/** Each enum's names. A bound that differs from its array fails to compile. */
extern const EnumName kSimModeNames[5];
extern const EnumName kPredictorNames[5];
extern const EnumName kHwPrefetcherNames[6];
extern const EnumName kDistanceProviderNames[3];

/** The name of `value` in `names`; the first name when it has none. */
const char *enumName(std::span<const EnumName> names, std::uint8_t value);

/** The value spelled `name` in `names`; nullopt on an unknown name. */
std::optional<std::uint8_t> parseEnumName(std::span<const EnumName> names,
                                          std::string_view name);

/** Every name, pipe-separated ("a|b|c"), for errors and usage text. */
std::string enumChoices(std::span<const EnumName> names);

/** Canonical name of a mode (inverse of parseSimMode). */
const char *simModeName(SimMode mode);

/** Parse a mode name; nullopt on an unknown value. */
std::optional<SimMode> parseSimMode(std::string_view name);

/** Canonical name of a direction predictor kind. */
const char *predictorName(DirectionPredictorKind kind);

/** Parse a predictor name; nullopt on an unknown value. */
std::optional<DirectionPredictorKind>
parsePredictor(std::string_view name);

/** Canonical name of an L1-I hardware-prefetcher kind. */
const char *hwPrefetcherName(IPrefetcherKind kind);

/** Parse a hardware-prefetcher name; nullopt on an unknown value. */
std::optional<IPrefetcherKind> parseHwPrefetcher(std::string_view name);

/** Canonical name of an AsmDB distance-provider kind. */
const char *distanceProviderName(DistanceProviderKind kind);

/** Parse a distance-provider name; nullopt on an unknown value. */
std::optional<DistanceProviderKind>
parseDistanceProvider(std::string_view name);

/**
 * Parse a base-10 unsigned integer, rejecting junk, trailing garbage,
 * signs, and overflow past `max`. The never-throwing flag parser for
 * every tool's numeric options.
 */
std::optional<std::uint64_t>
parseUnsigned(std::string_view text,
              std::uint64_t max = ~std::uint64_t{0});

} // namespace sipre

#endif // SIPRE_CORE_OPTIONS_HPP
