/**
 * @file
 * JSON interchange for simulation results and configurations: one
 * stable machine-readable schema shared by `sipre_cli --json`, the
 * simulation service, and scripts consuming either. Also provides the
 * minimal JSON value/parser the service uses for request bodies — no
 * external dependencies.
 */
#ifndef SIPRE_CORE_JSON_IO_HPP
#define SIPRE_CORE_JSON_IO_HPP

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/sim_result.hpp"

namespace sipre
{

// ------------------------------------------------------------ string sink

/**
 * Appends a document into one string, `os << ...` style, without a
 * stream. It takes only what the serializers write: text, single
 * characters and the statistics' integer types (through
 * std::to_chars). Doubles go through jsonDouble. bool, the char-sized
 * integers and floating types do not compile: an ostream printed a
 * uint8_t as a character and a double at precision 6, so letting them
 * through would silently change the bytes.
 */
class JsonSink
{
  public:
    explicit JsonSink(std::string &out) : out_(out) {}

    JsonSink &
    operator<<(std::string_view text)
    {
        out_ += text;
        return *this;
    }

    // Its own overload: a literal would otherwise take the
    // pointer-to-bool conversion to the deleted bool overload.
    JsonSink &
    operator<<(const char *text)
    {
        out_ += text;
        return *this;
    }

    JsonSink &
    operator<<(char c)
    {
        out_ += c;
        return *this;
    }

    template <std::integral T>
    JsonSink &
    operator<<(T value)
    {
        char digits[24];
        const auto end =
            std::to_chars(digits, digits + sizeof digits, value).ptr;
        out_.append(digits, end);
        return *this;
    }

    // Exact matches, so these win over the template above.
    JsonSink &operator<<(bool) = delete;
    JsonSink &operator<<(signed char) = delete;
    JsonSink &operator<<(unsigned char) = delete;
    JsonSink &operator<<(float) = delete;
    JsonSink &operator<<(double) = delete;
    JsonSink &operator<<(long double) = delete;

  private:
    std::string &out_;
};

// ----------------------------------------------------------- generic JSON

/** A parsed JSON document node (tree-owning, no sharing). */
struct JsonValue
{
    enum class Kind : std::uint8_t {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject
    };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isObject() const { return kind == Kind::kObject; }
    bool isArray() const { return kind == Kind::kArray; }
    bool isString() const { return kind == Kind::kString; }
    bool isBool() const { return kind == Kind::kBool; }
    bool isNumber() const { return kind == Kind::kNumber; }

    /** Member lookup on an object; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;
};

/**
 * Parse a complete JSON document (trailing whitespace allowed, trailing
 * garbage rejected). On failure returns false and sets `error` to a
 * human-readable message with a byte offset.
 */
bool parseJson(std::string_view text, JsonValue &out, std::string &error);

/** Escape a string for embedding in a JSON document (no quotes added). */
std::string jsonEscape(std::string_view s);

/**
 * Format a double with max_digits10 precision so the value survives a
 * text round-trip bit-exactly (same policy as the campaign cache): the
 * bytes of printf's "%.17g", with "0" for NaN and the infinities. Job
 * records persist this form, so it must not change.
 */
std::string jsonDouble(double value);

/**
 * Extract a non-negative integer from a parsed JSON number, rejecting
 * negatives, fractions, and values past 2^53 (where doubles stop being
 * exact). Shared by the service request parser and the jobs sweep-spec
 * parser so "what counts as an integer" has one definition.
 */
bool jsonToUint(const JsonValue &value, std::uint64_t &out);

// Array builders for sweep specs and other list-valued documents.
// Escaping and numeric formatting match the scalar helpers above.
std::string jsonStringArray(const std::vector<std::string> &items);
std::string jsonUIntArray(const std::vector<std::uint64_t> &items);

// ------------------------------------------------------------ serializers

/**
 * The full SimResult as a JSON object: every counter, running-stat
 * aggregate, and histogram bucket, plus the derived ipc / l1i_mpki /
 * branch_mpki conveniences. Field order is fixed, so two identical
 * results serialize to byte-identical documents.
 */
std::string simResultToJson(const SimResult &result);

/** The knobs of a SimConfig relevant to request canonicalization. */
std::string simConfigToJson(const SimConfig &config);

} // namespace sipre

#endif // SIPRE_CORE_JSON_IO_HPP
