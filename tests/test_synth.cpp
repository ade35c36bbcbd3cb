/**
 * @file
 * Tests for the synthetic workload generator: program-model structural
 * invariants, trace validity and determinism across all archetypes, the
 * paper's L1-I MPKI band (2-28) property, and the whole suite's programs
 * and traces pinned to committed digests.
 */
#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_set>

#include <gtest/gtest.h>

#include "trace/synth/program_model.hpp"
#include "trace/synth/workload.hpp"
#include "trace/trace_stats.hpp"

namespace sipre::synth
{
namespace
{

ProgramParams
smallParams()
{
    ProgramParams p;
    p.levels = 3;
    p.functions_per_level = 16;
    p.min_blocks = 3;
    p.max_blocks = 6;
    p.min_body = 2;
    p.max_body = 5;
    return p;
}

// ---------------------------------------------------------- program model

TEST(ProgramModel, LayoutIsContiguousAndSorted)
{
    const auto prog = ProgramModel::build(smallParams(), 1);
    Addr prev_end = ProgramModel::kCodeBase;
    for (std::uint32_t id = 0; id < prog.functionCount(); ++id) {
        const FunctionModel fn = prog.function(id);
        EXPECT_GE(fn.entry, prev_end);
        Addr cursor = fn.entry;
        for (const auto &block : fn.blocks) {
            EXPECT_EQ(block.addr, cursor);
            cursor += block.sizeBytes();
        }
        prev_end = cursor;
    }
    EXPECT_EQ(prog.codeEnd(), (prev_end + 15) & ~Addr{15});
    EXPECT_GT(prog.codeBytes(), 0u);
}

TEST(ProgramModel, CalleesAreStrictlyDeeper)
{
    const auto prog = ProgramModel::build(smallParams(), 2);
    for (std::uint32_t id = 1; id < prog.functionCount(); ++id) {
        const FunctionModel fn = prog.function(id);
        for (const auto &block : fn.blocks) {
            for (const auto callee : block.callees) {
                ASSERT_LT(callee, prog.functionCount());
                EXPECT_GT(prog.function(callee).level, fn.level)
                    << "call DAG must be acyclic by level";
            }
        }
    }
}

TEST(ProgramModel, LeafLevelHasNoCalls)
{
    const auto prog = ProgramModel::build(smallParams(), 3);
    for (std::uint32_t id = 0; id < prog.functionCount(); ++id) {
        const FunctionModel fn = prog.function(id);
        if (fn.level + 1 < 3)
            continue;
        for (const auto &block : fn.blocks) {
            EXPECT_NE(block.term, TermKind::kCall);
            EXPECT_NE(block.term, TermKind::kIndirectCall);
        }
    }
}

TEST(ProgramModel, ForwardTargetsStayInFunction)
{
    const auto prog = ProgramModel::build(smallParams(), 4);
    for (std::uint32_t id = 0; id < prog.functionCount(); ++id) {
        const FunctionModel fn = prog.function(id);
        for (std::size_t i = 0; i < fn.blocks.size(); ++i) {
            const auto &block = fn.blocks[i];
            if (block.term == TermKind::kCondForward ||
                block.term == TermKind::kJump) {
                EXPECT_GT(block.target_block, i);
                EXPECT_LT(block.target_block, fn.blocks.size());
            }
            if (block.term == TermKind::kCondLoopBack &&
                block.loop_trips != 0xffff) {
                EXPECT_EQ(block.target_block, i) << "self-loop only";
            }
            for (const auto target : block.multi_targets)
                EXPECT_LT(target, fn.blocks.size());
        }
    }
}

TEST(ProgramModel, SchedulesIndexValidTargets)
{
    const auto prog = ProgramModel::build(smallParams(), 5);
    for (std::uint32_t id = 0; id < prog.functionCount(); ++id) {
        const FunctionModel fn = prog.function(id);
        for (const auto &block : fn.blocks) {
            const std::size_t universe =
                block.term == TermKind::kIndirectJump
                    ? block.multi_targets.size()
                    : block.callees.size();
            for (const auto slot : block.schedule)
                EXPECT_LT(slot, universe);
        }
    }
}

TEST(ProgramModel, DeterministicFromSeed)
{
    const auto a = ProgramModel::build(smallParams(), 42);
    const auto b = ProgramModel::build(smallParams(), 42);
    ASSERT_EQ(a.functionCount(), b.functionCount());
    EXPECT_EQ(a.codeBytes(), b.codeBytes());
    for (std::uint32_t id = 0; id < a.functionCount(); ++id) {
        EXPECT_EQ(a.function(id).entry, b.function(id).entry);
        EXPECT_EQ(a.function(id).blocks.size(),
                  b.function(id).blocks.size());
    }
}

TEST(ProgramModel, PyramidShrinksLevels)
{
    ProgramParams p = smallParams();
    p.levels = 3;
    p.functions_per_level = 64;
    p.level_shrink = 2.0;
    const auto prog = ProgramModel::build(p, 6);
    std::array<std::size_t, 3> per_level{};
    for (std::uint32_t id = 1; id < prog.functionCount(); ++id)
        ++per_level[prog.function(id).level];
    EXPECT_EQ(per_level[0], 64u);
    EXPECT_EQ(per_level[1], 32u);
    EXPECT_EQ(per_level[2], 16u);
}

// ------------------------------------------------------------- workloads

class ArchetypeTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ArchetypeTest, GeneratesValidTrace)
{
    const std::string name = GetParam();
    Archetype arch = Archetype::kServer;
    if (name.find("crypto") != std::string::npos)
        arch = Archetype::kCrypto;
    else if (name.find("int") != std::string::npos)
        arch = Archetype::kInteger;

    const auto spec = makeWorkloadSpec(name, arch, 0x517e2023ULL);
    const Trace trace = generateTrace(spec, 50'000);
    ASSERT_EQ(trace.size(), 50'000u);
    std::string err;
    EXPECT_TRUE(validateTrace(trace, &err)) << err;
}

TEST_P(ArchetypeTest, DeterministicGeneration)
{
    const auto spec =
        makeWorkloadSpec(GetParam(), Archetype::kServer, 0x517e2023ULL);
    const Trace a = generateTrace(spec, 20'000);
    const Trace b = generateTrace(spec, 20'000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].pc, b[i].pc);
        ASSERT_EQ(a[i].addr, b[i].addr);
        ASSERT_EQ(a[i].taken, b[i].taken);
    }
}

INSTANTIATE_TEST_SUITE_P(Names, ArchetypeTest,
                         ::testing::Values("public_srv_60",
                                           "secret_crypto52",
                                           "secret_int_124",
                                           "secret_srv12",
                                           "secret_srv85"));

TEST(WorkloadSuite, Has48NamedWorkloads)
{
    const auto suite = cvp1LikeSuite();
    ASSERT_EQ(suite.size(), 48u);
    EXPECT_EQ(suite.front().name, "public_srv_60");
    EXPECT_EQ(suite.back().name, "secret_srv85");
    std::unordered_set<std::string> names;
    for (const auto &spec : suite)
        names.insert(spec.name);
    EXPECT_EQ(names.size(), 48u) << "names must be unique";
}

TEST(WorkloadSuite, FindWorkloadByName)
{
    for (const auto &spec : cvp1LikeSuite()) {
        const WorkloadSpec *found = findWorkload(spec.name);
        ASSERT_NE(found, nullptr) << spec.name;
        EXPECT_EQ(found->name, spec.name);
        EXPECT_EQ(found->seed, spec.seed);
        EXPECT_EQ(findWorkload(spec.name), found) << "one immutable suite";
    }
    EXPECT_EQ(findWorkload(""), nullptr);
    EXPECT_EQ(findWorkload("secret_srv"), nullptr);
    EXPECT_EQ(findWorkload("secret_srv12 "), nullptr);
}

TEST(WorkloadSuite, TruncatedSuite)
{
    EXPECT_EQ(cvp1LikeSuite(5).size(), 5u);
    EXPECT_EQ(cvp1LikeSuite(100).size(), 48u);
}

TEST(WorkloadSuite, ArchetypesFollowNames)
{
    for (const auto &spec : cvp1LikeSuite()) {
        if (spec.name.find("crypto") != std::string::npos)
            EXPECT_EQ(spec.archetype, Archetype::kCrypto);
        else if (spec.name.find("int") != std::string::npos)
            EXPECT_EQ(spec.archetype, Archetype::kInteger);
        else
            EXPECT_EQ(spec.archetype, Archetype::kServer);
    }
}

TEST(WorkloadSuite, SeedsDifferAcrossWorkloads)
{
    const auto suite = cvp1LikeSuite();
    std::unordered_set<std::uint64_t> seeds;
    for (const auto &spec : suite)
        seeds.insert(spec.seed);
    EXPECT_EQ(seeds.size(), suite.size());
}

/**
 * The paper's workload-selection property: traces have large instruction
 * working sets with L1-I MPKI in roughly the 2-28 band. We check with a
 * functional (no-timing) 32 KiB 8-way LRU I-cache model.
 */
class MpkiBandTest : public ::testing::TestWithParam<int>
{
};

double
functionalL1iMpki(const Trace &trace)
{
    constexpr std::uint32_t kSets = 64, kWays = 8;
    struct Way
    {
        std::uint64_t tag = ~0ull;
        std::uint64_t stamp = 0;
    };
    std::vector<Way> cache(kSets * kWays);
    std::uint64_t clock = 0, misses = 0;
    Addr prev_line = kNoAddr;
    for (const auto &inst : trace) {
        const Addr line = inst.pc >> 6;
        if (line == prev_line)
            continue;
        prev_line = line;
        const std::uint32_t set = line % kSets;
        Way *victim = &cache[set * kWays];
        bool hit = false;
        for (std::uint32_t w = 0; w < kWays; ++w) {
            Way &way = cache[set * kWays + w];
            if (way.tag == line) {
                way.stamp = ++clock;
                hit = true;
                break;
            }
            if (way.stamp < victim->stamp)
                victim = &way;
        }
        if (!hit) {
            victim->tag = line;
            victim->stamp = ++clock;
            ++misses;
        }
    }
    return 1000.0 * static_cast<double>(misses) /
           static_cast<double>(trace.size());
}

TEST_P(MpkiBandTest, WithinPaperBand)
{
    const auto suite = cvp1LikeSuite();
    const auto &spec = suite[static_cast<std::size_t>(GetParam())];
    const Trace trace = generateTrace(spec, 400'000);
    const double mpki = functionalL1iMpki(trace);
    EXPECT_GE(mpki, 1.0) << spec.name;
    EXPECT_LE(mpki, 40.0) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(Sampled, MpkiBandTest,
                         ::testing::Values(0, 1, 4, 10, 16, 24, 32, 40,
                                           47));

// ----------------------------------------------------------- pinned output

/** FNV-1a 64 over the little-endian bytes of every value fed to it. */
class Fnv
{
  public:
    template <typename T>
    void
    add(T value)
    {
        static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
        const auto v = static_cast<std::uint64_t>(value);
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            hash_ ^= (v >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void
    addAll(const std::vector<T> &values)
    {
        add(values.size());
        for (const T v : values)
            add(v);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Every function's entry and level and every block's fields. */
std::uint64_t
programDigest(const ProgramModel &prog)
{
    Fnv h;
    h.add(prog.functionCount());
    h.add(prog.codeBytes());
    h.add(prog.codeEnd());
    for (std::uint32_t id = 0; id < prog.functionCount(); ++id) {
        const FunctionModel fn = prog.function(id);
        h.add(fn.entry);
        h.add(fn.level);
        h.add(fn.blocks.size());
        for (const BlockModel &b : fn.blocks) {
            h.add(b.addr);
            h.add(b.body_instrs);
            h.add(b.term);
            h.add(b.target_block);
            h.addAll(b.multi_targets);
            h.addAll(b.callees);
            h.add(b.pattern_period);
            h.add(b.pattern_taken);
            h.add(std::bit_cast<std::uint64_t>(b.noise));
            h.add(b.loop_trips);
            h.addAll(b.schedule);
        }
    }
    return h.value();
}

/** Every field of every instruction, plus the trace's seed. */
std::uint64_t
traceDigest(const Trace &trace)
{
    Fnv h;
    h.add(trace.seed());
    h.add(trace.size());
    for (const TraceInstruction &inst : trace) {
        h.add(inst.pc);
        // The target and the effective address as two values, the one
        // the class does not use as 0, as synth_digests.txt pins them.
        h.add(inst.addrKind() == AddrKind::kTarget ? inst.addr : Addr{0});
        h.add(inst.addrKind() == AddrKind::kEffective ? inst.addr
                                                        : Addr{0});
        h.add(inst.cls);
        h.add(inst.size);
        h.add(inst.taken);
        h.add(inst.dst);
        h.add(inst.src[0]);
        h.add(inst.src[1]);
    }
    return h.value();
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// The synthesizer's output for the whole suite, pinned to
// tests/data/synth_digests.txt: each workload's program and its traces
// at 3,000 and 200,000 instructions. On a mismatch the digests this
// build computed are written to synth_digests.actual.txt in the
// working directory; copy that file over the committed one only when
// the change in the synthesized workloads is intended.
TEST(WorkloadSuite, ProgramsAndTracesMatchPinnedDigests)
{
    std::map<std::string, std::string> expected;
    std::ifstream in(SIPRE_TEST_DATA_DIR "/synth_digests.txt");
    ASSERT_TRUE(in) << "missing tests/data/synth_digests.txt";
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name;
        fields >> name;
        std::getline(fields, expected[name]);
    }

    std::ostringstream actual;
    bool mismatch = false;
    const auto suite = cvp1LikeSuite();
    for (const WorkloadSpec &spec : suite) {
        std::ostringstream row;
        row << " "
            << hex(programDigest(ProgramModel::build(spec.program, spec.seed)))
            << " " << hex(traceDigest(generateTrace(spec, 3'000))) << " "
            << hex(traceDigest(generateTrace(spec, 200'000)));
        const std::string digests = row.str();
        actual << spec.name << digests << "\n";
        const auto it = expected.find(spec.name);
        if (it == expected.end() || it->second != digests) {
            mismatch = true;
            if (it == expected.end())
                ADD_FAILURE() << "workload " << spec.name
                              << ": has no digest";
            else
                ADD_FAILURE() << "workload " << spec.name
                              << ": program or trace changed (expected"
                              << it->second << ", got" << digests << ")";
        }
    }
    EXPECT_EQ(expected.size(), suite.size())
        << "the digest file pins a different suite";
    if (mismatch) {
        std::ofstream("synth_digests.actual.txt") << actual.str();
        ADD_FAILURE() << "computed digests written to "
                         "synth_digests.actual.txt";
    }
}

} // namespace
} // namespace sipre::synth
