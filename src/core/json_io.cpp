#include "core/json_io.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "core/options.hpp"

namespace sipre
{

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind != Kind::kObject)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

// ----------------------------------------------------------------- parser

namespace
{

/** Recursive-descent parser over a string_view; tracks a byte offset. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    bool
    parse(JsonValue &out, std::string &error)
    {
        if (!parseValue(out, /*depth=*/0)) {
            error = error_;
            return false;
        }
        skipWhitespace();
        if (pos_ != text_.size()) {
            error = fail("trailing characters after JSON document");
            return false;
        }
        return true;
    }

  private:
    static constexpr int kMaxDepth = 64;

    std::string
    fail(const std::string &what)
    {
        error_ = what + " at byte " + std::to_string(pos_);
        return error_;
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    consume(char expected)
    {
        if (pos_ < text_.size() && text_[pos_] == expected) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    parseLiteral(std::string_view literal)
    {
        if (text_.substr(pos_, literal.size()) != literal) {
            fail("invalid literal");
            return false;
        }
        pos_ += literal.size();
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"')) {
            fail("expected '\"'");
            return false;
        }
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
                return false;
            }
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return false;
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else {
                        fail("bad hex digit in \\u escape");
                        return false;
                    }
                }
                // Encode the BMP code point as UTF-8 (surrogate pairs
                // are not needed for the request schema).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(
                        static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
            }
            default:
                fail("unknown escape sequence");
                return false;
            }
        }
        fail("unterminated string");
        return false;
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (consume('-')) {
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0') {
            pos_ = start;
            fail("invalid number");
            return false;
        }
        out.kind = JsonValue::Kind::kNumber;
        out.number = value;
        return true;
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth) {
            fail("document nested too deeply");
            return false;
        }
        skipWhitespace();
        if (pos_ >= text_.size()) {
            fail("unexpected end of document");
            return false;
        }
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out.kind = JsonValue::Kind::kObject;
            skipWhitespace();
            if (consume('}'))
                return true;
            for (;;) {
                skipWhitespace();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWhitespace();
                if (!consume(':')) {
                    fail("expected ':'");
                    return false;
                }
                JsonValue member;
                if (!parseValue(member, depth + 1))
                    return false;
                out.object.emplace_back(std::move(key),
                                        std::move(member));
                skipWhitespace();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                fail("expected ',' or '}'");
                return false;
            }
        }
        if (c == '[') {
            ++pos_;
            out.kind = JsonValue::Kind::kArray;
            skipWhitespace();
            if (consume(']'))
                return true;
            for (;;) {
                JsonValue element;
                if (!parseValue(element, depth + 1))
                    return false;
                out.array.push_back(std::move(element));
                skipWhitespace();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                fail("expected ',' or ']'");
                return false;
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::kString;
            return parseString(out.string);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::kBool;
            out.boolean = true;
            return parseLiteral("true");
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::kBool;
            out.boolean = false;
            return parseLiteral("false");
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::kNull;
            return parseLiteral("null");
        }
        return parseNumber(out);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string error_;
};

} // namespace

bool
parseJson(std::string_view text, JsonValue &out, std::string &error)
{
    out = JsonValue{};
    JsonParser parser(text);
    return parser.parse(out, error);
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

std::string
jsonDouble(double value)
{
    if (!std::isfinite(value))
        return "0";
    // to_chars with a precision prints as printf's %.*g does, which is
    // what a stream at setprecision(max_digits10) printed.
    char digits[32]; // sign, 17 digits, point, "e-308"
    const auto end =
        std::to_chars(digits, digits + sizeof digits, value,
                      std::chars_format::general,
                      std::numeric_limits<double>::max_digits10)
            .ptr;
    return std::string(digits, end);
}

bool
jsonToUint(const JsonValue &value, std::uint64_t &out)
{
    if (!value.isNumber())
        return false;
    if (value.number < 0.0 || value.number != std::floor(value.number) ||
        value.number > 9.007199254740992e15) // 2^53
        return false;
    out = static_cast<std::uint64_t>(value.number);
    return true;
}

std::string
jsonStringArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0)
            out += ',';
        out += '"';
        out += jsonEscape(items[i]);
        out += '"';
    }
    out += ']';
    return out;
}

std::string
jsonUIntArray(const std::vector<std::uint64_t> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0)
            out += ',';
        out += std::to_string(items[i]);
    }
    out += ']';
    return out;
}

// ------------------------------------------------------------ serializers

namespace
{

void
writeRunningStat(JsonSink &os, const RunningStat &s)
{
    os << "{\"count\":" << s.count() << ",\"sum\":" << jsonDouble(s.sum())
       << ",\"min\":" << jsonDouble(s.min())
       << ",\"max\":" << jsonDouble(s.max())
       << ",\"mean\":" << jsonDouble(s.mean()) << "}";
}

void
writeHistogramJson(JsonSink &os, const Histogram &h)
{
    os << "{\"width\":" << h.width() << ",\"sum\":" << h.sum()
       << ",\"counts\":[";
    for (std::size_t i = 0; i <= h.buckets(); ++i) {
        if (i != 0)
            os << ',';
        os << h.count(i);
    }
    os << "]}";
}

void
writeCacheJson(JsonSink &os, const CacheStats &c)
{
    os << "{\"accesses\":" << c.accesses << ",\"hits\":" << c.hits
       << ",\"misses\":" << c.misses
       << ",\"mshr_merges\":" << c.mshr_merges
       << ",\"prefetch_requests\":" << c.prefetch_requests
       << ",\"prefetch_hits\":" << c.prefetch_hits
       << ",\"prefetch_fills\":" << c.prefetch_fills
       << ",\"prefetch_useful\":" << c.prefetch_useful
       << ",\"prefetch_late\":" << c.prefetch_late
       << ",\"evictions\":" << c.evictions
       << ",\"writebacks_out\":" << c.writebacks_out
       << ",\"writebacks_in\":" << c.writebacks_in << "}";
}

/**
 * Everything in a result object except the closing brace, so the
 * multi-core serializer can append its sections. Single-core output is
 * byte-identical to what this wrote before multi-core existed.
 */
void
writeResultJsonBody(JsonSink &os, const SimResult &r)
{
    os << "{\"workload\":\"" << jsonEscape(r.workload)
       << "\",\"config_label\":\"" << jsonEscape(r.config_label)
       << "\",\"instructions\":" << r.instructions
       << ",\"effective_instructions\":" << r.effective_instructions
       << ",\"cycles\":" << r.cycles
       << ",\"ipc\":" << jsonDouble(r.ipc())
       << ",\"l1i_mpki\":" << jsonDouble(r.l1iMpki())
       << ",\"branch_mpki\":" << jsonDouble(r.branchMpki());

    const FrontendStats &f = r.frontend;
    os << ",\"frontend\":{\"scenario1_cycles\":" << f.scenario1_cycles
       << ",\"scenario2_cycles\":" << f.scenario2_cycles
       << ",\"scenario3_cycles\":" << f.scenario3_cycles
       << ",\"ftq_empty_cycles\":" << f.ftq_empty_cycles
       << ",\"head_stall_cycles\":" << f.head_stall_cycles
       << ",\"waiting_entry_events\":" << f.waiting_entry_events
       << ",\"partial_head_events\":" << f.partial_head_events
       << ",\"l1i_fetches_issued\":" << f.l1i_fetches_issued
       << ",\"l1i_fetches_merged\":" << f.l1i_fetches_merged
       << ",\"blocks_allocated\":" << f.blocks_allocated
       << ",\"instructions_delivered\":" << f.instructions_delivered
       << ",\"sw_prefetches_triggered\":" << f.sw_prefetches_triggered
       << ",\"mispredict_stalls\":" << f.mispredict_stalls
       << ",\"btb_miss_stalls\":" << f.btb_miss_stalls
       << ",\"stall_cycles_mispredict\":" << f.stall_cycles_mispredict
       << ",\"stall_cycles_btb_miss\":" << f.stall_cycles_btb_miss
       << ",\"pfc_resumes\":" << f.pfc_resumes
       << ",\"wrong_path_prefetches\":" << f.wrong_path_prefetches
       << ",\"itlb_walks\":" << f.itlb_walks
       << ",\"head_fetch_latency\":";
    writeRunningStat(os, f.head_fetch_latency);
    os << ",\"nonhead_fetch_latency\":";
    writeRunningStat(os, f.nonhead_fetch_latency);
    os << ",\"head_latency_hist\":";
    writeHistogramJson(os, f.head_latency_hist);
    os << ",\"nonhead_latency_hist\":";
    writeHistogramJson(os, f.nonhead_latency_hist);
    os << "}";

    os << ",\"backend\":{\"retired\":" << r.backend.retired
       << ",\"retired_sw_prefetches\":" << r.backend.retired_sw_prefetches
       << ",\"dispatched\":" << r.backend.dispatched
       << ",\"loads_issued\":" << r.backend.loads_issued
       << ",\"stores_issued\":" << r.backend.stores_issued
       << ",\"rob_full_cycles\":" << r.backend.rob_full_cycles
       << ",\"empty_rob_cycles\":" << r.backend.empty_rob_cycles << "}";

    os << ",\"branch\":{\"cond_predictions\":" << r.branch.cond_predictions
       << ",\"cond_mispredictions\":" << r.branch.cond_mispredictions
       << ",\"btb_miss_taken\":" << r.branch.btb_miss_taken
       << ",\"target_mispredictions\":" << r.branch.target_mispredictions
       << "}";

    os << ",\"btb\":{\"lookups\":" << r.btb.lookups
       << ",\"hits\":" << r.btb.hits << ",\"updates\":" << r.btb.updates
       << ",\"evictions\":" << r.btb.evictions << "}";

    os << ",\"l1i\":";
    writeCacheJson(os, r.l1i);
    os << ",\"l1d\":";
    writeCacheJson(os, r.l1d);
    os << ",\"l2\":";
    writeCacheJson(os, r.l2);
    os << ",\"llc\":";
    writeCacheJson(os, r.llc);
    // Present only when a hardware prefetcher ran, so unprefetched
    // results serialize byte-identically to pre-hwpf output.
    if (!r.hwpf.empty()) {
        os << ",\"hwpf\":[";
        for (std::size_t i = 0; i < r.hwpf.size(); ++i) {
            const HwPrefetchCounters &c = r.hwpf[i];
            if (i != 0)
                os << ',';
            os << "{\"name\":\"" << jsonEscape(c.name)
               << "\",\"issued\":" << c.issued
               << ",\"filtered\":" << c.filtered
               << ",\"dropped_overflow\":" << c.dropped_overflow
               << ",\"dropped_redirect\":" << c.dropped_redirect
               << ",\"dropped_tlb\":" << c.dropped_tlb
               << ",\"deferred_tlb\":" << c.deferred_tlb
               << ",\"useful\":" << c.useful << ",\"late\":" << c.late
               << ",\"polluting\":" << c.polluting
               << ",\"demoted_fills\":" << c.demoted_fills
               << ",\"accuracy\":" << jsonDouble(c.accuracy()) << "}";
        }
        os << "]";
    }
    // Always present (window_size 0 + empty windows when the feature
    // was off) so served and direct serializations stay byte-identical.
    os << ",\"scenario_timeline\":{\"window_size\":"
       << r.scenario_timeline.window_size << ",\"windows\":[";
    for (std::size_t i = 0; i < r.scenario_timeline.windows.size(); ++i) {
        const ScenarioWindow &w = r.scenario_timeline.windows[i];
        if (i != 0)
            os << ",";
        os << "{\"start_cycle\":" << w.start_cycle;
        for (std::size_t s = 0; s < kFtqScenarioCount; ++s) {
            os << ",\"" << ftqScenarioName(static_cast<FtqScenario>(s))
               << "\":" << w.cycles[s];
        }
        os << "}";
    }
    os << "]}";
}

} // namespace

std::string
simResultToJson(const SimResult &r)
{
    std::string out;
    // A single-core document is about 2.6 KB; each co-run core adds
    // its own.
    out.reserve(3072 * (1 + r.core_results.size()));
    JsonSink os(out);
    writeResultJsonBody(os, r);
    if (!r.core_results.empty()) {
        const SharedMemStats &s = r.shared_mem;
        os << ",\"cores\":" << r.core_results.size()
           << ",\"shared_mem\":{\"llc\":";
        writeCacheJson(os, s.llc);
        os << ",\"dram\":{\"reads\":" << s.dram.reads
           << ",\"writebacks\":" << s.dram.writebacks
           << ",\"row_hits\":" << s.dram.row_hits
           << ",\"row_misses\":" << s.dram.row_misses << "}"
           << ",\"llc_core_hits\":" << jsonUIntArray(s.llc_core_hits)
           << ",\"llc_core_misses\":" << jsonUIntArray(s.llc_core_misses)
           << ",\"port_grants\":" << jsonUIntArray(s.port_grants)
           << ",\"port_queued\":" << jsonUIntArray(s.port_queued)
           << ",\"dram_queue_depth\":{\"sum\":" << s.dram_queue_depth.sum()
           << ",\"counts\":[";
        for (std::size_t i = 0; i < s.dram_queue_depth.buckets(); ++i) {
            if (i != 0)
                os << ',';
            os << s.dram_queue_depth.count(i);
        }
        os << "]}}";
        os << ",\"core_results\":[";
        for (std::size_t i = 0; i < r.core_results.size(); ++i) {
            if (i != 0)
                os << ',';
            writeResultJsonBody(os, r.core_results[i]);
            os << "}";
        }
        os << "]";
    }
    os << "}";
    return out;
}

std::string
simConfigToJson(const SimConfig &config)
{
    std::string out;
    JsonSink os(out);
    os << "{\"label\":\"" << jsonEscape(config.label)
       << "\",\"ftq_entries\":" << config.frontend.ftq_entries
       << ",\"predictor\":\""
       << predictorName(config.frontend.branch.direction)
       << "\",\"hw_prefetcher\":\""
       << hwPrefetcherName(config.memory.l1i_prefetcher)
       << "\",\"pfc\":" << (config.frontend.pfc ? "true" : "false")
       << ",\"ghr_filter\":"
       << (config.frontend.branch.ghr_filter_btb_miss ? "true" : "false")
       << ",\"wrong_path\":"
       << (config.frontend.wrong_path_fetch ? "true" : "false")
       << ",\"warmup_fraction\":" << jsonDouble(config.warmup_fraction)
       << ",\"fast_forward\":"
       << (config.fast_forward ? "true" : "false") << "}";
    return out;
}

} // namespace sipre
