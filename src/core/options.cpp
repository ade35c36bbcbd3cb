#include "core/options.hpp"

#include <charconv>

namespace sipre
{

constexpr EnumName kSimModeNames[5] = {
    {"base", SimMode::kBase},         {"asmdb", SimMode::kAsmdb},
    {"noovh", SimMode::kNoOverhead},  {"metadata", SimMode::kMetadata},
    {"feedback", SimMode::kFeedback},
};

constexpr EnumName kPredictorNames[5] = {
    {"perceptron", DirectionPredictorKind::kHashedPerceptron},
    {"tage", DirectionPredictorKind::kTageLite},
    {"gshare", DirectionPredictorKind::kGshare},
    {"bimodal", DirectionPredictorKind::kBimodal},
    {"local", DirectionPredictorKind::kLocal},
};

constexpr EnumName kHwPrefetcherNames[6] = {
    {"none", IPrefetcherKind::kNone}, {"nextline", IPrefetcherKind::kNextLine},
    {"eip", IPrefetcherKind::kEipLite}, {"fdip", IPrefetcherKind::kFdip},
    {"mana", IPrefetcherKind::kMana}, {"fdip+mana", IPrefetcherKind::kFdipMana},
};

constexpr EnumName kDistanceProviderNames[3] = {
    {"static", DistanceProviderKind::kStatic},
    {"profile", DistanceProviderKind::kProfile},
    {"adaptive", DistanceProviderKind::kAdaptive},
};

namespace
{

template <typename Enum>
std::optional<Enum>
parseAs(std::span<const EnumName> names, std::string_view name)
{
    const auto value = parseEnumName(names, name);
    if (!value)
        return std::nullopt;
    return static_cast<Enum>(*value);
}

} // namespace

const char *
enumName(std::span<const EnumName> names, std::uint8_t value)
{
    for (const EnumName &entry : names) {
        if (entry.value == value)
            return entry.name;
    }
    return names.front().name;
}

std::optional<std::uint8_t>
parseEnumName(std::span<const EnumName> names, std::string_view name)
{
    for (const EnumName &entry : names) {
        if (name == entry.name)
            return entry.value;
    }
    return std::nullopt;
}

std::string
enumChoices(std::span<const EnumName> names)
{
    std::string out;
    for (const EnumName &entry : names) {
        if (!out.empty())
            out += '|';
        out += entry.name;
    }
    return out;
}

const char *
simModeName(SimMode mode)
{
    return enumName(kSimModeNames, static_cast<std::uint8_t>(mode));
}

std::optional<SimMode>
parseSimMode(std::string_view name)
{
    return parseAs<SimMode>(kSimModeNames, name);
}

const char *
predictorName(DirectionPredictorKind kind)
{
    return enumName(kPredictorNames, static_cast<std::uint8_t>(kind));
}

std::optional<DirectionPredictorKind>
parsePredictor(std::string_view name)
{
    return parseAs<DirectionPredictorKind>(kPredictorNames, name);
}

const char *
hwPrefetcherName(IPrefetcherKind kind)
{
    return enumName(kHwPrefetcherNames, static_cast<std::uint8_t>(kind));
}

std::optional<IPrefetcherKind>
parseHwPrefetcher(std::string_view name)
{
    return parseAs<IPrefetcherKind>(kHwPrefetcherNames, name);
}

const char *
distanceProviderName(DistanceProviderKind kind)
{
    return enumName(kDistanceProviderNames, static_cast<std::uint8_t>(kind));
}

std::optional<DistanceProviderKind>
parseDistanceProvider(std::string_view name)
{
    return parseAs<DistanceProviderKind>(kDistanceProviderNames, name);
}

std::optional<std::uint64_t>
parseUnsigned(std::string_view text, std::uint64_t max)
{
    std::uint64_t value = 0;
    const char *first = text.data();
    const char *last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, value, 10);
    if (ec != std::errc{} || ptr != last || first == last || value > max)
        return std::nullopt;
    return value;
}

} // namespace sipre
