/**
 * @file
 * Tests for the text trace format: round trips, parse errors, and
 * interchange with the synthetic generator.
 */
#include <sstream>

#include <gtest/gtest.h>

#include "trace/synth/workload.hpp"
#include "trace/trace_stats.hpp"
#include "trace/trace_text.hpp"

namespace sipre
{
namespace
{

TEST(TraceText, RoundTripsEveryField)
{
    Trace trace("text");
    {
        TraceInstruction alu;
        alu.pc = 0x1000;
        alu.cls = InstClass::kAlu;
        alu.dst = 3;
        alu.src = {4, 5};
        trace.append(alu);
    }
    {
        TraceInstruction load;
        load.pc = 0x1004;
        load.cls = InstClass::kLoad;
        load.addr = 0xbeef00;
        load.dst = 7;
        load.src = {1, kNoReg};
        trace.append(load);
    }
    {
        TraceInstruction br;
        br.pc = 0x1008;
        br.cls = InstClass::kCondBranch;
        br.taken = true;
        br.addr = 0x1000;
        trace.append(br);
    }
    {
        TraceInstruction pf;
        pf.pc = 0x100c;
        pf.cls = InstClass::kSwPrefetch;
        pf.addr = 0x4000;
        trace.append(pf);
    }

    std::stringstream ss;
    writeTraceText(trace, ss);

    Trace loaded;
    std::string err;
    ASSERT_TRUE(readTraceText(ss, loaded, &err)) << err;
    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded[i].pc, trace[i].pc);
        EXPECT_EQ(loaded[i].cls, trace[i].cls);
        EXPECT_EQ(loaded[i].taken, trace[i].taken);
        EXPECT_EQ(loaded[i].addr, trace[i].addr);
        EXPECT_EQ(loaded[i].dst, trace[i].dst);
        EXPECT_EQ(loaded[i].src, trace[i].src);
    }
}

TEST(TraceText, SkipsCommentsAndBlankLines)
{
    std::stringstream ss("# header\n\n1000 alu d=1 s=2\n");
    Trace trace;
    ASSERT_TRUE(readTraceText(ss, trace));
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0].pc, 0x1000u);
}

TEST(TraceText, RejectsUnknownClass)
{
    std::stringstream ss("1000 fancy_op\n");
    Trace trace;
    std::string err;
    EXPECT_FALSE(readTraceText(ss, trace, &err));
    EXPECT_NE(err.find("unknown class"), std::string::npos);
}

TEST(TraceText, RejectsUnknownToken)
{
    std::stringstream ss("1000 alu x=9\n");
    Trace trace;
    std::string err;
    EXPECT_FALSE(readTraceText(ss, trace, &err));
    EXPECT_NE(err.find("unknown token"), std::string::npos);
}

// The class decides what the one address means: t= belongs to
// branches and prefetches, m= to loads and stores.
TEST(TraceText, RejectsAnAddressTheClassDoesNotUse)
{
    for (const char *line : {"1000 alu t=2000\n", "1000 alu m=2000\n",
                             "1000 load t=2000\n",
                             "1000 call m=2000 taken\n",
                             "1000 sw_prefetch m=2000\n"}) {
        std::stringstream ss(line);
        Trace trace;
        std::string err;
        EXPECT_FALSE(readTraceText(ss, trace, &err)) << line;
        EXPECT_NE(err.find("takes no"), std::string::npos) << err;
    }
}

TEST(TraceText, RejectsBadPc)
{
    std::stringstream ss("zzz alu\n");
    Trace trace;
    std::string err;
    EXPECT_FALSE(readTraceText(ss, trace, &err));
    EXPECT_NE(err.find("bad pc"), std::string::npos);
}

TEST(TraceText, SyntheticWorkloadRoundTripStaysValid)
{
    const auto spec = synth::makeWorkloadSpec(
        "secret_int_124", synth::Archetype::kInteger, 0x517e2023ULL);
    const Trace original = synth::generateTrace(spec, 20'000);

    std::stringstream ss;
    writeTraceText(original, ss);
    Trace loaded;
    std::string err;
    ASSERT_TRUE(readTraceText(ss, loaded, &err)) << err;
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_TRUE(validateTrace(loaded, &err)) << err;

    const TraceStats a = computeTraceStats(original);
    const TraceStats b = computeTraceStats(loaded);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.static_instructions, b.static_instructions);
}

} // namespace
} // namespace sipre
