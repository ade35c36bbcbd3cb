/**
 * @file
 * Request canonicalization: equivalent JSON spellings (field order,
 * whitespace, explicit defaults) must produce the same canonical key,
 * and every distinct knob combination in the full option space must
 * produce a distinct key. Also the number forms the result encoder
 * writes: jsonDouble prints what a max_digits10 stream printed, and the
 * string sink takes only the types that print the same as a stream.
 */
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/json_io.hpp"
#include "jobs/sweep.hpp"
#include "service/engine.hpp"
#include "service/request.hpp"
#include "trace/synth/workload.hpp"

using namespace sipre;
using namespace sipre::service;

namespace
{

SimRequest
mustParse(const std::string &body)
{
    SimRequest request;
    std::string error;
    EXPECT_TRUE(parseSimRequest(body, request, error)) << error;
    return request;
}

std::string
mustFail(const std::string &body)
{
    SimRequest request;
    std::string error;
    EXPECT_FALSE(parseSimRequest(body, request, error)) << body;
    return error;
}

} // namespace

TEST(ServiceRequest, OptionNamesRoundTripThroughParse)
{
    // Every canonical name a config can serialize with must parse back
    // to the same kind, or cached/serialized configs get rejected.
    for (const auto mode :
         {SimMode::kBase, SimMode::kAsmdb, SimMode::kNoOverhead,
          SimMode::kMetadata, SimMode::kFeedback})
        EXPECT_EQ(parseSimMode(simModeName(mode)), mode);
    for (const auto kind : {DirectionPredictorKind::kHashedPerceptron,
                            DirectionPredictorKind::kTageLite,
                            DirectionPredictorKind::kGshare,
                            DirectionPredictorKind::kBimodal,
                            DirectionPredictorKind::kLocal})
        EXPECT_EQ(parsePredictor(predictorName(kind)), kind);
    for (const auto kind :
         {IPrefetcherKind::kNone, IPrefetcherKind::kNextLine,
          IPrefetcherKind::kEipLite, IPrefetcherKind::kFdip,
          IPrefetcherKind::kMana, IPrefetcherKind::kFdipMana})
        EXPECT_EQ(parseHwPrefetcher(hwPrefetcherName(kind)), kind);
}

TEST(ServiceRequest, DefaultsAreFilledIn)
{
    const SimRequest minimal =
        mustParse(R"({"workload":"secret_srv12"})");
    const SimRequest explicit_defaults = mustParse(
        R"({"workload":"secret_srv12","instructions":2000000,"ftq":24,)"
        R"("mode":"base","predictor":"perceptron","hw_prefetcher":"none",)"
        R"("pfc":true,"ghr_filter":true,"wrong_path":true})");
    EXPECT_EQ(minimal.canonicalKey(), explicit_defaults.canonicalKey());
}

TEST(ServiceRequest, FieldOrderDoesNotMatter)
{
    const SimRequest a = mustParse(
        R"({"workload":"secret_srv12","ftq":2,"mode":"asmdb"})");
    const SimRequest b = mustParse(
        R"({"mode":"asmdb","workload":"secret_srv12","ftq":2})");
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
}

TEST(ServiceRequest, WhitespaceDoesNotMatter)
{
    const SimRequest compact =
        mustParse(R"({"workload":"secret_srv12","ftq":8})");
    const SimRequest spaced = mustParse(
        "{\n  \"workload\" :\t\"secret_srv12\" ,\r\n  \"ftq\" : 8\n}");
    EXPECT_EQ(compact.canonicalKey(), spaced.canonicalKey());
}

TEST(ServiceRequest, RequestJsonRoundTripsToSameKey)
{
    SimRequest request;
    request.workload = "secret_crypto52";
    request.instructions = 123'000;
    request.ftq_entries = 6;
    request.mode = SimMode::kNoOverhead;
    request.predictor = DirectionPredictorKind::kTageLite;
    request.hw_prefetcher = IPrefetcherKind::kNextLine;
    request.pfc = false;
    const SimRequest reparsed = mustParse(requestToJson(request));
    EXPECT_EQ(request.canonicalKey(), reparsed.canonicalKey());
}

TEST(ServiceRequest, RejectionsAreSpecific)
{
    EXPECT_NE(mustFail("{"), "");
    EXPECT_NE(mustFail("[1,2]").find("object"), std::string::npos);
    EXPECT_NE(mustFail(R"({"ftq":4})").find("workload"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12","bogus":1})")
                  .find("unknown field 'bogus'"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"nope_wl"})")
                  .find("unknown workload"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12","mode":"x"})")
                  .find("unknown mode"),
              std::string::npos);
    EXPECT_NE(
        mustFail(R"({"workload":"secret_srv12","predictor":"x"})")
            .find("unknown predictor"),
        std::string::npos);
    EXPECT_NE(
        mustFail(R"({"workload":"secret_srv12","hw_prefetcher":"x"})")
            .find("unknown hw_prefetcher"),
        std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12","ftq":0})")
                  .find("out of range"),
              std::string::npos);
    EXPECT_NE(
        mustFail(R"({"workload":"secret_srv12","instructions":10})")
            .find("out of range"),
        std::string::npos);
    EXPECT_NE(
        mustFail(R"({"workload":"secret_srv12","instructions":1.5})")
            .find("integer"),
        std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12","pfc":"yes"})")
                  .find("boolean"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12"} trailing)")
                  .find("invalid JSON"),
              std::string::npos);
}

TEST(ServiceRequest, CoresAndMixSpellingsShareOneCanonicalForm)
{
    // A plain workload defaults to one core.
    const SimRequest single = mustParse(R"({"workload":"secret_srv12"})");
    EXPECT_EQ(single.cores, 1u);
    EXPECT_TRUE(single.mix.empty());

    // `cores` with a workload is a homogeneous co-run; effectiveMix()
    // spells out the per-core assignment.
    const SimRequest homog =
        mustParse(R"({"workload":"secret_srv12","cores":4})");
    EXPECT_EQ(homog.cores, 4u);
    EXPECT_TRUE(homog.mix.empty());
    EXPECT_EQ(homog.effectiveMix(),
              (std::vector<std::string>(4, "secret_srv12")));

    // A homogeneous mix normalizes to the workload+cores spelling, so
    // both share a canonical key (one cache entry).
    const SimRequest spelled = mustParse(
        R"({"mix":["secret_srv12","secret_srv12","secret_srv12",)"
        R"("secret_srv12"]})");
    EXPECT_TRUE(spelled.mix.empty());
    EXPECT_EQ(spelled.canonicalKey(), homog.canonicalKey());

    // A heterogeneous mix keeps its order — the key separates
    // srv12+int_124 from int_124+srv12 (different core assignments).
    const SimRequest ab =
        mustParse(R"({"mix":["secret_srv12","secret_int_124"]})");
    const SimRequest ba =
        mustParse(R"({"mix":["secret_int_124","secret_srv12"]})");
    EXPECT_EQ(ab.cores, 2u);
    EXPECT_EQ(ab.workload, "secret_srv12");
    EXPECT_NE(ab.canonicalKey(), ba.canonicalKey());

    // And both spellings survive the JSON round trip key-intact.
    EXPECT_EQ(mustParse(requestToJson(homog)).canonicalKey(),
              homog.canonicalKey());
    EXPECT_EQ(mustParse(requestToJson(ab)).canonicalKey(),
              ab.canonicalKey());
}

TEST(ServiceRequest, CoresAndMixRejectionsAreSpecific)
{
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12","cores":0})")
                  .find("out of range"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12","cores":9})")
                  .find("out of range"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"workload":"secret_srv12",)"
                       R"("mix":["secret_int_124"]})")
                  .find("mutually exclusive"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"mix":["secret_srv12","secret_int_124"],)"
                       R"("cores":3})")
                  .find("contradicts"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"mix":[]})").find("mix"), std::string::npos);
    EXPECT_NE(mustFail(R"({"mix":["secret_srv12","nope_wl"]})")
                  .find("unknown workload"),
              std::string::npos);
    EXPECT_NE(mustFail(R"({"mix":"secret_srv12"})").find("array"),
              std::string::npos);
    // `cores` matching the mix length is redundant but consistent, so
    // it parses.
    const SimRequest consistent =
        mustParse(R"({"mix":["secret_srv12","secret_int_124"],)"
                  R"("cores":2})");
    EXPECT_EQ(consistent.cores, 2u);
}

// Regression: the multi-core artifact modes store a pointer to each
// core's rewritten trace while still filling the artifact vector; a
// vector grow mid-loop used to dangle every earlier core's pointer,
// leaving core 0 with an empty trace (0 instructions, blank name).
// Three cores force at least two growth opportunities.
TEST(ServiceRequest, RewrittenTraceModesRunEveryCoreOfAMix)
{
    for (const char *mode : {"asmdb", "feedback"}) {
        const SimRequest request = mustParse(
            std::string(R"({"mix":["secret_srv12","secret_int_124",)"
                        R"("secret_crypto52"],"instructions":20000,)"
                        R"("mode":")") +
            mode + "\"}");
        const SimResult result = runSimRequest(request);
        ASSERT_EQ(result.core_results.size(), 3u) << mode;
        for (std::size_t i = 0; i < result.core_results.size(); ++i) {
            const SimResult &core = result.core_results[i];
            EXPECT_GT(core.instructions, 0u) << mode << " core " << i;
            EXPECT_GT(core.effective_instructions, 0u)
                << mode << " core " << i;
            EXPECT_FALSE(core.workload.empty()) << mode << " core " << i;
        }
    }
}

TEST(ServiceRequest, FullOptionSpaceSweepHasNoCollisions)
{
    const auto suite = synth::cvp1LikeSuite();
    const SimMode modes[] = {SimMode::kBase, SimMode::kAsmdb,
                             SimMode::kNoOverhead, SimMode::kMetadata,
                             SimMode::kFeedback};
    const DirectionPredictorKind predictors[] = {
        DirectionPredictorKind::kHashedPerceptron,
        DirectionPredictorKind::kTageLite,
        DirectionPredictorKind::kGshare,
        DirectionPredictorKind::kBimodal,
        DirectionPredictorKind::kLocal};
    const IPrefetcherKind prefetchers[] = {IPrefetcherKind::kNone,
                                           IPrefetcherKind::kNextLine,
                                           IPrefetcherKind::kEipLite};
    const std::uint32_t ftqs[] = {2, 8, 24};
    const std::uint64_t lengths[] = {30'000, 2'000'000};

    std::set<std::string> keys;
    std::size_t combinations = 0;
    for (const auto &spec : suite) {
        for (const auto mode : modes) {
            for (const auto predictor : predictors) {
                for (const auto prefetcher : prefetchers) {
                    for (const auto ftq : ftqs) {
                        for (const auto length : lengths) {
                            for (int toggles = 0; toggles < 8;
                                 ++toggles) {
                                SimRequest request;
                                request.workload = spec.name;
                                request.instructions = length;
                                request.ftq_entries = ftq;
                                request.mode = mode;
                                request.predictor = predictor;
                                request.hw_prefetcher = prefetcher;
                                request.pfc = (toggles & 1) != 0;
                                request.ghr_filter = (toggles & 2) != 0;
                                request.wrong_path = (toggles & 4) != 0;
                                keys.insert(request.canonicalKey());
                                ++combinations;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(keys.size(), combinations);
    // 48 workloads x 5 modes x 5 predictors x 3 prefetchers x 3 FTQ
    // depths x 2 lengths x 8 toggle combinations.
    EXPECT_EQ(combinations, 48u * 5 * 5 * 3 * 3 * 2 * 8);
}

TEST(ServiceRequest, ToConfigMatchesCliSemantics)
{
    // Default depth keeps the industry preset label (CLI parity: the
    // label only changes when --ftq is passed with a different value).
    const SimRequest defaults =
        mustParse(R"({"workload":"secret_srv12"})");
    EXPECT_EQ(simConfigToJson(defaults.toConfig()),
              simConfigToJson(SimConfig::industry()));

    const SimRequest shallow =
        mustParse(R"({"workload":"secret_srv12","ftq":2})");
    const SimConfig config = shallow.toConfig();
    EXPECT_EQ(config.label, "ftq2");
    EXPECT_EQ(config.frontend.ftq_entries, 2u);

    const SimRequest knobs = mustParse(
        R"({"workload":"secret_srv12","predictor":"gshare",)"
        R"("hw_prefetcher":"eip","pfc":false,"ghr_filter":false,)"
        R"("wrong_path":false})");
    const SimConfig knob_config = knobs.toConfig();
    EXPECT_EQ(knob_config.frontend.branch.direction,
              DirectionPredictorKind::kGshare);
    EXPECT_EQ(knob_config.memory.l1i_prefetcher,
              IPrefetcherKind::kEipLite);
    EXPECT_FALSE(knob_config.frontend.pfc);
    EXPECT_FALSE(knob_config.frontend.branch.ghr_filter_btb_miss);
    EXPECT_FALSE(knob_config.frontend.wrong_path_fetch);
}

TEST(ServiceRequest, DistinctKnobsChangeTheKey)
{
    const SimRequest base = mustParse(R"({"workload":"secret_srv12"})");
    const char *variants[] = {
        R"({"workload":"public_srv_60"})",
        R"({"workload":"secret_srv12","instructions":30000})",
        R"({"workload":"secret_srv12","ftq":2})",
        R"({"workload":"secret_srv12","mode":"asmdb"})",
        R"({"workload":"secret_srv12","predictor":"tage"})",
        R"({"workload":"secret_srv12","hw_prefetcher":"eip"})",
        R"({"workload":"secret_srv12","pfc":false})",
        R"({"workload":"secret_srv12","ghr_filter":false})",
        R"({"workload":"secret_srv12","wrong_path":false})",
    };
    for (const char *variant : variants)
        EXPECT_NE(base.canonicalKey(), mustParse(variant).canonicalKey())
            << variant;
}

namespace
{

/** jsonDouble as it was written over a stream, kept as the reference. */
std::string
streamDouble(double value)
{
    if (!std::isfinite(value))
        return "0";
    std::ostringstream oss;
    oss << std::setprecision(std::numeric_limits<double>::max_digits10)
        << value;
    return oss.str();
}

template <typename T>
concept Sinkable = requires(JsonSink &sink, T value) { sink << value; };

// A stream printed these the same way the sink does.
static_assert(Sinkable<const char *>);
static_assert(Sinkable<std::string>);
static_assert(Sinkable<char>);
static_assert(Sinkable<std::uint32_t>);
static_assert(Sinkable<std::uint64_t>);
static_assert(Sinkable<std::size_t>);
static_assert(Sinkable<int>);
// A stream printed these differently (a uint8_t as a character, a
// double at precision 6), so the sink refuses them.
static_assert(!Sinkable<bool>);
static_assert(!Sinkable<std::uint8_t>);
static_assert(!Sinkable<std::int8_t>);
static_assert(!Sinkable<float>);
static_assert(!Sinkable<double>);
static_assert(!Sinkable<long double>);

} // namespace

TEST(JsonIo, DoubleMatchesStreamForm)
{
    using limits = std::numeric_limits<double>;
    const double edges[] = {
        0.0,
        -0.0,
        limits::denorm_min(),
        -limits::denorm_min(),
        limits::denorm_min() * 12345.0,
        limits::min() / 3.0,
        1e21,
        1e22,
        -1e22,
        0.1,
        1.0 / 3,
        2.0 / 3,
        1.0,
        100.0,
        123456789012345678.0,
        1e16,
        1e17,
        0.0001,
        0.00001,
        limits::min(),
        limits::max(),
        limits::lowest(),
        limits::epsilon(),
        limits::quiet_NaN(),
        -limits::quiet_NaN(),
        limits::infinity(),
        -limits::infinity(),
    };
    for (const double value : edges)
        EXPECT_EQ(jsonDouble(value), streamDouble(value)) << value;
    EXPECT_EQ(jsonDouble(-0.0), "-0");
    EXPECT_EQ(jsonDouble(limits::quiet_NaN()), "0");
    EXPECT_EQ(jsonDouble(-limits::infinity()), "0");

    // Random bit patterns cover every exponent, subnormals and NaNs;
    // ratios of counts are what the statistics print.
    std::mt19937_64 rng(20231);
    for (int i = 0; i < 200'000; ++i) {
        const double bits = std::bit_cast<double>(rng());
        ASSERT_EQ(jsonDouble(bits), streamDouble(bits))
            << std::hexfloat << bits;
        const double ratio = static_cast<double>(rng() % 10'000'000) /
                             static_cast<double>(1 + rng() % 100'000);
        ASSERT_EQ(jsonDouble(ratio), streamDouble(ratio))
            << std::hexfloat << ratio;
    }
}

// Every byte a knob persists: the canonical key and request echo of a
// fixed list of /simulate bodies, and the canonical spec and ordered
// shard keys of a fixed list of sweeps. Result caches, job records and
// shard indices are keyed on these, so a change here orphans stored
// work; tests/data/knob_encodings.txt pins them.
TEST(KnobEncodings, RequestsAndSweepsMatchPinnedFile)
{
    const char *requests[] = {
        R"({"workload":"secret_srv12"})",
        R"({"workload":"secret_srv12","mode":"base"})",
        R"({"workload":"secret_srv12","mode":"asmdb"})",
        R"({"workload":"secret_srv12","mode":"noovh"})",
        R"({"workload":"secret_srv12","mode":"metadata"})",
        R"({"workload":"secret_srv12","mode":"feedback"})",
        R"({"workload":"secret_srv12","predictor":"perceptron"})",
        R"({"workload":"secret_srv12","predictor":"tage"})",
        R"({"workload":"secret_srv12","predictor":"gshare"})",
        R"({"workload":"secret_srv12","predictor":"bimodal"})",
        R"({"workload":"secret_srv12","predictor":"local"})",
        R"({"workload":"secret_srv12","hw_prefetcher":"none"})",
        R"({"workload":"secret_srv12","hw_prefetcher":"nextline"})",
        R"({"workload":"secret_srv12","hw_prefetcher":"eip"})",
        R"({"workload":"secret_srv12","hw_prefetcher":"fdip"})",
        R"({"workload":"secret_srv12","hw_prefetcher":"mana"})",
        R"({"workload":"secret_srv12","hw_prefetcher":"fdip+mana"})",
        R"({"workload":"secret_srv12","distance_provider":"static"})",
        R"({"workload":"secret_srv12","distance_provider":"profile"})",
        R"({"workload":"secret_srv12","distance_provider":"adaptive"})",
        R"({"workload":"secret_srv12","pfc":true})",
        R"({"workload":"secret_srv12","pfc":false})",
        R"({"workload":"secret_srv12","ghr_filter":true})",
        R"({"workload":"secret_srv12","ghr_filter":false})",
        R"({"workload":"secret_srv12","wrong_path":true})",
        R"({"workload":"secret_srv12","wrong_path":false})",
        R"({"workload":"secret_srv12","ftq":1})",
        R"({"workload":"secret_srv12","ftq":512})",
        R"({"workload":"secret_srv12","cores":1})",
        R"({"workload":"secret_srv12","cores":8})",
        R"({"workload":"secret_srv12","instructions":1000})",
        R"({"workload":"secret_srv12","instructions":100000000})",
        R"({"mix":["secret_int_124"]})",
        R"({"mix":["secret_crypto52","secret_crypto52"]})",
        R"({"mix":["secret_srv12","secret_int_124","secret_crypto52"]})",
        R"({"cores":2,"mix":["secret_srv12","secret_int_124"],)"
        R"("mode":"asmdb"})",
        R"({"wrong_path":false,"distance_provider":"profile",)"
        R"("ghr_filter":false,"pfc":false,"hw_prefetcher":"fdip+mana",)"
        R"("predictor":"tage","mode":"feedback","ftq":2,"cores":4,)"
        R"("instructions":30000,"workload":"public_srv_60"})",
    };
    const char *sweeps[] = {
        R"({"workloads":["secret_srv12"]})",
        R"({"workloads":["secret_crypto52"],"instructions":30000,)"
        R"("ftq":8,"mode":"asmdb","predictor":"tage",)"
        R"("hw_prefetcher":"fdip","pfc":false,"ghr_filter":false,)"
        R"("wrong_path":false,"distance_provider":"adaptive","cores":2})",
        R"({"workloads":["secret_srv12","secret_crypto52"],"ftq":[2,24],)"
        R"("mode":["base","noovh"],"predictor":["perceptron","local"],)"
        R"("hw_prefetcher":["none","fdip+mana"],"pfc":[true,false],)"
        R"("instructions":50000})",
        R"({"workloads":["secret_crypto52","secret_srv12"],)"
        R"("cores":[1,2,8],"ftq":[4,8],"instructions":30000})",
        R"({"mix":["secret_srv12","secret_int_124"],)"
        R"("mode":["base","asmdb"],"hw_prefetcher":["eip","mana"],)"
        R"("instructions":30000})",
        R"({"mix":["secret_crypto52","secret_crypto52"]})",
        R"({"workloads":["secret_srv12"],"mode":"asmdb",)"
        R"("ghr_filter":[false,true],"wrong_path":[true,false],)"
        R"("distance_provider":["static","profile","adaptive"]})",
    };

    // Lines as the file holds them: a header, then each body followed
    // by its indented encodings.
    std::vector<std::string> actual = {
        "# Persisted knob encodings, generated by",
        "# KnobEncodings.RequestsAndSweepsMatchPinnedFile: for each request",
        "# body its canonical key and request echo, for each sweep spec its",
        "# canonical JSON and its shards' canonical keys in shard order.",
    };
    for (const char *body : requests) {
        SimRequest request;
        std::string error;
        ASSERT_TRUE(parseSimRequest(body, request, error))
            << body << ": " << error;
        actual.push_back(std::string("request ") + body);
        actual.push_back("  key " + request.canonicalKey());
        actual.push_back("  json " + requestToJson(request));
    }
    for (const char *body : sweeps) {
        jobs::SweepSpec spec;
        std::string error;
        ASSERT_TRUE(jobs::parseSweepSpec(body, spec, error))
            << body << ": " << error;
        actual.push_back(std::string("sweep ") + body);
        actual.push_back("  spec " + jobs::sweepSpecToJson(spec));
        const auto shards = jobs::expandSweep(spec);
        for (std::size_t i = 0; i < shards.size(); ++i)
            actual.push_back("  shard " + std::to_string(i) + " " +
                             shards[i].canonicalKey());
    }

    std::ifstream in(SIPRE_TEST_DATA_DIR "/knob_encodings.txt");
    ASSERT_TRUE(in) << "missing tests/data/knob_encodings.txt";
    std::vector<std::string> expected;
    for (std::string line; std::getline(in, line);)
        expected.push_back(line);
    if (actual == expected)
        return;
    std::size_t n = 0;
    while (n < actual.size() && n < expected.size() &&
           actual[n] == expected[n])
        ++n;
    ADD_FAILURE() << "knob_encodings.txt line " << n + 1 << " differs\n"
                  << "  pinned:   "
                  << (n < expected.size() ? expected[n] : "<end of file>")
                  << "\n  computed: "
                  << (n < actual.size() ? actual[n] : "<end of file>");
    std::ofstream out("knob_encodings.actual.txt");
    for (const std::string &line : actual)
        out << line << '\n';
    ADD_FAILURE() << "computed encodings written to "
                     "knob_encodings.actual.txt";
}
