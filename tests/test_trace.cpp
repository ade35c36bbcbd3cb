/**
 * @file
 * Tests for the trace substrate: instruction records, binary I/O,
 * structural validation, summary statistics, and the SIPT and text
 * formats pinned to committed digests.
 */
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "asmdb/pipeline.hpp"
#include "multicore/multicore.hpp"
#include "trace/synth/workload.hpp"
#include "trace/trace.hpp"
#include "trace/trace_stats.hpp"
#include "trace/trace_text.hpp"

namespace sipre
{
namespace
{

TraceInstruction
makeAlu(Addr pc)
{
    TraceInstruction inst;
    inst.pc = pc;
    inst.cls = InstClass::kAlu;
    inst.dst = 1;
    inst.src = {2, 3};
    return inst;
}

TraceInstruction
makeBranch(Addr pc, bool taken, Addr target,
           InstClass cls = InstClass::kCondBranch)
{
    TraceInstruction inst;
    inst.pc = pc;
    inst.cls = cls;
    inst.taken = taken;
    inst.addr = target;
    return inst;
}

TraceInstruction
makeLoad(Addr pc, Addr addr)
{
    TraceInstruction inst;
    inst.pc = pc;
    inst.cls = InstClass::kLoad;
    inst.addr = addr;
    inst.dst = 4;
    inst.src = {5, kNoReg};
    return inst;
}

// --------------------------------------------------------- classification

TEST(Instruction, BranchClassification)
{
    EXPECT_TRUE(isBranchClass(InstClass::kCondBranch));
    EXPECT_TRUE(isBranchClass(InstClass::kReturn));
    EXPECT_TRUE(isBranchClass(InstClass::kIndirectCall));
    EXPECT_FALSE(isBranchClass(InstClass::kAlu));
    EXPECT_FALSE(isBranchClass(InstClass::kSwPrefetch));
}

TEST(Instruction, IndirectClassification)
{
    EXPECT_TRUE(isIndirectClass(InstClass::kReturn));
    EXPECT_TRUE(isIndirectClass(InstClass::kIndirectJump));
    EXPECT_FALSE(isIndirectClass(InstClass::kCall));
    EXPECT_FALSE(isIndirectClass(InstClass::kCondBranch));
}

TEST(Instruction, UnconditionalClassification)
{
    EXPECT_TRUE(isUnconditionalClass(InstClass::kDirectJump));
    EXPECT_FALSE(isUnconditionalClass(InstClass::kCondBranch));
    EXPECT_FALSE(isUnconditionalClass(InstClass::kMul));
}

TEST(Instruction, NextPc)
{
    auto inst = makeAlu(0x1000);
    EXPECT_EQ(inst.nextPc(), 0x1004u);
}

TEST(Instruction, ClassNamesAreStable)
{
    EXPECT_EQ(instClassName(InstClass::kAlu), "alu");
    EXPECT_EQ(instClassName(InstClass::kSwPrefetch), "sw_prefetch");
    EXPECT_EQ(instClassName(InstClass::kReturn), "return");
}

// ----------------------------------------------------------------- trace

TEST(Trace, SaveLoadRoundTrip)
{
    Trace trace("roundtrip");
    trace.setSeed(0xdeadbeef);
    trace.append(makeAlu(0x1000));
    trace.append(makeLoad(0x1004, 0x20000));
    trace.append(makeBranch(0x1008, true, 0x1000));

    const std::string path = ::testing::TempDir() + "sipre_trace_rt.bin";
    ASSERT_TRUE(trace.save(path));

    Trace loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.name(), "roundtrip");
    EXPECT_EQ(loaded.seed(), 0xdeadbeefu);
    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded[i].pc, trace[i].pc);
        EXPECT_EQ(loaded[i].cls, trace[i].cls);
        EXPECT_EQ(loaded[i].taken, trace[i].taken);
        EXPECT_EQ(loaded[i].addr, trace[i].addr);
        EXPECT_EQ(loaded[i].dst, trace[i].dst);
        EXPECT_EQ(loaded[i].src, trace[i].src);
    }
    std::remove(path.c_str());
}

TEST(Trace, LoadRejectsGarbage)
{
    const std::string path = ::testing::TempDir() + "sipre_trace_bad.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a trace", f);
    std::fclose(f);
    Trace t;
    EXPECT_FALSE(t.load(path));
    std::remove(path.c_str());
}

TEST(Trace, LoadMissingFileFails)
{
    Trace t;
    EXPECT_FALSE(t.load("/nonexistent/path/trace.bin"));
}

/** Write `bytes` to a temporary file and return its path. */
std::string
writeTempFile(const std::string &name, const std::string &bytes)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream(path, std::ios::binary) << bytes;
    return path;
}

/** A SIPT header (magic, version 1, empty name, seed 0) and a count. */
std::string
siptHeader(std::uint64_t count)
{
    std::string bytes = "SIPT";
    const std::uint32_t version = 1, name_len = 0;
    const std::uint64_t seed = 0;
    bytes.append(reinterpret_cast<const char *>(&version), 4);
    bytes.append(reinterpret_cast<const char *>(&name_len), 4);
    bytes.append(reinterpret_cast<const char *>(&seed), 8);
    bytes.append(reinterpret_cast<const char *>(&count), 8);
    return bytes;
}

// A header is 28 bytes; one byte more cannot hold a single 32-byte
// record, let alone 2^31 or 2^60 of them. The load must fail rather
// than reserve what the header claims; so must a name length the file
// cannot hold.
TEST(Trace, LoadRejectsACountTheFileCannotHold)
{
    for (const std::uint64_t count :
         {std::uint64_t{1} << 31, std::uint64_t{1} << 60}) {
        const std::string path = writeTempFile(
            "sipre_trace_count.bin", siptHeader(count) + '\0');
        Trace t;
        EXPECT_FALSE(t.load(path)) << "count " << count;
        std::remove(path.c_str());
    }
    std::string huge_name = siptHeader(0).substr(0, 12);
    huge_name.replace(8, 4, "\xff\xff\xff\xff");
    const std::string path =
        writeTempFile("sipre_trace_name.bin", huge_name + '\0');
    Trace t;
    EXPECT_FALSE(t.load(path)) << "a 4 GiB name in a 13-byte file";
    std::remove(path.c_str());
}

/** A one-record SIPT file whose slots hold `target` and `mem_addr`. */
std::string
siptRecord(InstClass cls, std::uint64_t target, std::uint64_t mem_addr)
{
    std::string bytes = siptHeader(1);
    const std::uint64_t pc = 0x1000;
    bytes.append(reinterpret_cast<const char *>(&pc), 8);
    bytes.append(reinterpret_cast<const char *>(&target), 8);
    bytes.append(reinterpret_cast<const char *>(&mem_addr), 8);
    const char tail[8] = {static_cast<char>(cls), 4, 0, 0, 0, 0, 0, 0};
    bytes.append(tail, sizeof tail);
    return bytes;
}

// Each class reads its address from the slot save() writes it to; an
// address in the other slot, or an unknown class, fails the load.
TEST(Trace, LoadReadsTheSlotTheClassUses)
{
    struct Case
    {
        InstClass cls;
        std::uint64_t target, mem_addr;
        bool loads;
        Addr addr;
    };
    const Case cases[] = {
        {InstClass::kCondBranch, 0x2000, 0, true, 0x2000},
        {InstClass::kSwPrefetch, 0x3000, 0, true, 0x3000},
        {InstClass::kLoad, 0, 0x9000, true, 0x9000},
        {InstClass::kAlu, 0, 0, true, 0},
        {InstClass::kCondBranch, 0x2000, 0x9000, false, 0},
        {InstClass::kStore, 0x2000, 0x9000, false, 0},
        {InstClass::kAlu, 0x2000, 0, false, 0},
        {InstClass::kNumClasses, 0, 0, false, 0},
    };
    for (const Case &c : cases) {
        const std::string path = writeTempFile(
            "sipre_trace_slot.bin", siptRecord(c.cls, c.target, c.mem_addr));
        Trace t;
        EXPECT_EQ(t.load(path), c.loads)
            << instClassName(c.cls) << " " << c.target << " " << c.mem_addr;
        if (c.loads && t.size() == 1) {
            EXPECT_EQ(t[0].addr, c.addr);
        }
        std::remove(path.c_str());
    }
}

TEST(Trace, RebaseShiftsEachAddressOnce)
{
    Trace trace;
    trace.append(makeAlu(0x1000));
    trace.append(makeLoad(0x1004, 0x20000));
    trace.append(makeBranch(0x1008, true, 0x1000));
    trace.append(makeBranch(0x100c, false, 0));
    trace.rebase(0x100000);
    EXPECT_EQ(trace[0].pc, 0x101000u);
    EXPECT_EQ(trace[0].addr, 0u);
    EXPECT_EQ(trace[1].addr, 0x120000u);
    EXPECT_EQ(trace[2].addr, 0x101000u);
    EXPECT_EQ(trace[3].addr, 0u) << "no target stays no target";
}

// ------------------------------------------------- static table layout

// A synthesized trace holds each static instruction once: it reads back
// record for record as the plain vector of its records, and so does a
// copy built through the general append(), with one entry per distinct
// (pc, class, size, registers) shape.
TEST(Trace, ExecutionsShareStaticEntries)
{
    const Trace trace = synth::generateTrace(
        *synth::findWorkload("secret_srv12"), 200'000);
    std::vector<TraceInstruction> records;
    for (const TraceInstruction &inst : trace)
        records.push_back(inst);
    ASSERT_EQ(records.size(), 200'000u);

    Trace appended;
    for (const TraceInstruction &inst : records)
        appended.append(inst);
    ASSERT_EQ(appended.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        ASSERT_EQ(trace[i], records[i]) << "record " << i;
        ASSERT_EQ(appended[i], records[i]) << "record " << i;
    }

    std::set<std::tuple<Addr, InstClass, std::uint8_t, RegId, RegId, RegId>>
        shapes;
    for (const TraceInstruction &inst : records) {
        shapes.emplace(inst.pc, inst.cls, inst.size, inst.dst, inst.src[0],
                       inst.src[1]);
    }
    EXPECT_EQ(trace.statics().size(), shapes.size());
    EXPECT_EQ(appended.statics().size(), shapes.size());
    EXPECT_LT(shapes.size(), records.size());
}

// A ChampSim control-flow repair can turn one execution of an ALU op
// into a jump; both shapes of the pc stay in the table.
TEST(Trace, SamePcWithTwoShapesKeepsBoth)
{
    Trace trace;
    trace.append(makeAlu(0x1000));
    trace.append(makeBranch(0x1000, true, 0x2000, InstClass::kDirectJump));
    trace.append(makeAlu(0x1000));
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.statics().size(), 2u);
    EXPECT_EQ(trace[0], makeAlu(0x1000));
    EXPECT_EQ(trace[1],
              makeBranch(0x1000, true, 0x2000, InstClass::kDirectJump));
    EXPECT_EQ(trace[2], makeAlu(0x1000));
    EXPECT_EQ(trace.staticIndex(0), trace.staticIndex(2));
}

// rebase() moves each static entry's pc once, however many executions
// share it, and every nonzero address once: two rebases compose into
// one, and an address of 0 stays 0.
TEST(Trace, RebaseMovesEachStaticOnce)
{
    const Trace original = synth::generateTrace(
        *synth::findWorkload("secret_int_124"), 20'000);
    const Addr a = Addr{1} << 45;
    const Addr b = Addr{3} << 44;
    Trace twice = original;
    twice.rebase(a);
    twice.rebase(b);
    Trace once = original;
    once.rebase(a + b);

    ASSERT_EQ(twice.statics().size(), original.statics().size());
    for (std::size_t k = 0; k < original.statics().size(); ++k)
        EXPECT_EQ(twice.statics()[k].pc, original.statics()[k].pc + a + b);
    std::size_t zeros = 0;
    ASSERT_EQ(twice.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        ASSERT_EQ(twice[i], once[i]) << "record " << i;
        if (original[i].addr == 0) {
            ++zeros;
            ASSERT_EQ(twice[i].addr, 0u) << "record " << i;
        } else {
            ASSERT_EQ(twice[i].addr, original[i].addr + a + b);
        }
    }
    EXPECT_GT(zeros, 0u);
}

// An executed instruction costs a 32-bit table reference (with the
// taken bit) and one 64-bit address. Adding a field to it is a
// decision that must change this test.
TEST(Trace, ExecutionIsTwelveBytes)
{
    EXPECT_EQ(Trace::kExecutionBytes, 12u);
    EXPECT_EQ(sizeof(StaticInstruction), 16u);
    EXPECT_EQ(sizeof(TraceInstruction), 24u);
}

// ------------------------------------------------------------ validation

TEST(Validate, AcceptsWellFormedTrace)
{
    Trace trace;
    trace.append(makeAlu(0x1000));
    trace.append(makeBranch(0x1004, true, 0x2000));
    trace.append(makeAlu(0x2000));
    trace.append(makeBranch(0x2004, false, 0x3000));
    trace.append(makeAlu(0x2008));
    std::string err;
    EXPECT_TRUE(validateTrace(trace, &err)) << err;
}

TEST(Validate, RejectsBrokenControlFlow)
{
    Trace trace;
    trace.append(makeAlu(0x1000));
    trace.append(makeAlu(0x2000)); // gap without a branch
    std::string err;
    EXPECT_FALSE(validateTrace(trace, &err));
    EXPECT_FALSE(err.empty());
}

TEST(Validate, RejectsNotTakenUnconditional)
{
    Trace trace;
    auto jump = makeBranch(0x1000, false, 0x2000, InstClass::kDirectJump);
    trace.append(jump);
    EXPECT_FALSE(validateTrace(trace));
}

TEST(Validate, RejectsMemoryWithoutAddress)
{
    Trace trace;
    auto load = makeLoad(0x1000, 0);
    trace.append(load);
    EXPECT_FALSE(validateTrace(trace));
}

TEST(Validate, RejectsNonMemoryWithAddress)
{
    Trace trace;
    auto alu = makeAlu(0x1000);
    alu.addr = 0x1234;
    trace.append(alu);
    EXPECT_FALSE(validateTrace(trace));
}

TEST(Validate, RejectsTakenBranchWithoutTarget)
{
    Trace trace;
    trace.append(makeBranch(0x1000, true, 0));
    EXPECT_FALSE(validateTrace(trace));
}

TEST(Validate, RejectsSwPrefetchWithoutTarget)
{
    Trace trace;
    TraceInstruction pf;
    pf.pc = 0x1000;
    pf.cls = InstClass::kSwPrefetch;
    pf.addr = 0;
    trace.append(pf);
    EXPECT_FALSE(validateTrace(trace));
}

// ------------------------------------------------------------------ stats

TEST(TraceStats, CountsMixAndFootprint)
{
    Trace trace;
    trace.append(makeAlu(0x1000));
    trace.append(makeLoad(0x1004, 0x9000));
    trace.append(makeBranch(0x1008, true, 0x1000));
    trace.append(makeAlu(0x1000)); // repeat: same static pc
    trace.append(makeLoad(0x1004, 0x9040));
    trace.append(makeBranch(0x1008, false, 0x1000));
    trace.append(makeAlu(0x100c));

    const TraceStats s = computeTraceStats(trace);
    EXPECT_EQ(s.dynamic_instructions, 7u);
    EXPECT_EQ(s.static_instructions, 4u);
    EXPECT_EQ(s.code_footprint_bytes, 16u);
    EXPECT_EQ(s.branches, 2u);
    EXPECT_EQ(s.taken_branches, 1u);
    EXPECT_EQ(s.conditional_branches, 2u);
    EXPECT_EQ(s.loads, 2u);
    EXPECT_EQ(s.stores, 0u);
    EXPECT_NEAR(s.branchFraction(), 2.0 / 7.0, 1e-12);
}

TEST(TraceStats, FootprintLinesSpanBoundaries)
{
    Trace trace;
    auto inst = makeAlu(0x103e); // 2 bytes before a line boundary
    inst.size = 4;               // straddles into the next line
    trace.append(inst);
    const TraceStats s = computeTraceStats(trace);
    EXPECT_EQ(s.code_footprint_lines, 2u);
}

TEST(TraceStats, CountsSwPrefetches)
{
    Trace trace;
    TraceInstruction pf;
    pf.pc = 0x1000;
    pf.cls = InstClass::kSwPrefetch;
    pf.addr = 0x5000;
    trace.append(pf);
    const TraceStats s = computeTraceStats(trace);
    EXPECT_EQ(s.sw_prefetches, 1u);
}

// ------------------------------------------------------- pinned formats

/** FNV-1a 64 over a byte string. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The bytes Trace::save writes for `trace`. */
std::string
siptBytes(const Trace &trace)
{
    const std::string path = ::testing::TempDir() + "sipre_trace_pin.sipt";
    EXPECT_TRUE(trace.save(path));
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return bytes;
}

/** The bytes writeTraceText writes for `trace`. */
std::string
textBytes(const Trace &trace)
{
    std::ostringstream os;
    writeTraceText(trace, os);
    return os.str();
}

/**
 * The pinned traces: one server, one int and one crypto workload at
 * 3,000 instructions, the server trace rebased as core 1 of a co-run,
 * and the server trace after the AsmDB rewrite, so every address
 * class (branch and prefetch targets, effective addresses) appears.
 */
std::vector<Trace>
pinnedTraces()
{
    std::vector<Trace> traces;
    for (const char *name :
         {"secret_srv12", "secret_int_124", "secret_crypto52"}) {
        const synth::WorkloadSpec *spec = synth::findWorkload(name);
        EXPECT_NE(spec, nullptr) << name;
        if (spec != nullptr)
            traces.push_back(synth::generateTrace(*spec, 3'000));
    }
    if (traces.empty())
        return traces;
    Trace rebased = traces.front();
    rebased.rebase(kCoreAddressStride);
    rebased.setName(rebased.name() + "@core1");
    traces.push_back(std::move(rebased));
    traces.push_back(
        asmdb::runPipeline(traces.front(), SimConfig::conservative())
            .rewrite.trace);
    return traces;
}

// The bytes of both trace formats, pinned to
// tests/data/trace_format_digests.txt. A change to the in-memory
// record must leave both unchanged. On a mismatch the digests this
// build computed are written to trace_format_digests.actual.txt in the
// working directory.
TEST(TraceFormats, SiptAndTextBytesMatchPinnedDigests)
{
    std::vector<std::string> expected;
    std::ifstream in(SIPRE_TEST_DATA_DIR "/trace_format_digests.txt");
    ASSERT_TRUE(in) << "missing tests/data/trace_format_digests.txt";
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#')
            expected.push_back(line);
    }

    const std::vector<Trace> traces = pinnedTraces();
    ASSERT_EQ(traces.size(), 5u);
    EXPECT_GT(computeTraceStats(traces.back()).sw_prefetches, 0u)
        << "the rewritten trace must hold software prefetches";

    std::ostringstream actual;
    std::string first_mismatch;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        const std::string row = traces[i].name() + " " +
                                hex(fnv1a(siptBytes(traces[i]))) + " " +
                                hex(fnv1a(textBytes(traces[i])));
        actual << row << "\n";
        const std::string want =
            i < expected.size() ? expected[i] : "(no pinned row)";
        if (first_mismatch.empty() && row != want)
            first_mismatch = "expected '" + want + "', got '" + row + "'";
    }
    EXPECT_EQ(expected.size(), traces.size())
        << "the digest file pins a different set of traces";
    if (!first_mismatch.empty()) {
        std::ofstream("trace_format_digests.actual.txt") << actual.str();
        ADD_FAILURE() << "first mismatch: " << first_mismatch
                      << "; computed digests written to "
                         "trace_format_digests.actual.txt";
    }
}

} // namespace
} // namespace sipre
