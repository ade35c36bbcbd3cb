/**
 * @file
 * Tests for the ChampSim trace importer: branch-type inference, size
 * derivation, memory-operand reduction, and the control-flow repair
 * guarantee (imported traces always validate).
 */
#include <sstream>

#include <gtest/gtest.h>

#include "trace/champsim_import.hpp"
#include "util/rng.hpp"
#include "trace/trace_stats.hpp"

namespace sipre
{
namespace
{

ChampsimRecord
makeRecord(std::uint64_t ip)
{
    ChampsimRecord rec{};
    rec.ip = ip;
    return rec;
}

ChampsimRecord
makeBranch(std::uint64_t ip, bool taken, bool reads_ip, bool writes_ip,
           bool reads_flags, bool reads_sp, bool writes_sp,
           bool reads_other = false)
{
    ChampsimRecord rec = makeRecord(ip);
    rec.is_branch = 1;
    rec.branch_taken = taken ? 1 : 0;
    std::size_t s = 0, d = 0;
    if (reads_ip)
        rec.source_registers[s++] = kChampsimInstructionPointer;
    if (reads_flags)
        rec.source_registers[s++] = kChampsimFlags;
    if (reads_sp)
        rec.source_registers[s++] = kChampsimStackPointer;
    if (reads_other)
        rec.source_registers[s++] = 12;
    if (writes_ip)
        rec.destination_registers[d++] = kChampsimInstructionPointer;
    if (writes_sp)
        rec.destination_registers[d++] = kChampsimStackPointer;
    return rec;
}

std::stringstream
serialize(const std::vector<ChampsimRecord> &records)
{
    std::stringstream ss;
    for (const auto &rec : records) {
        ss.write(reinterpret_cast<const char *>(&rec), sizeof rec);
    }
    return ss;
}

TEST(ChampsimImport, EmptyStream)
{
    std::stringstream ss;
    Trace trace;
    EXPECT_EQ(importChampsimTrace(ss, trace), 0u);
}

TEST(ChampsimImport, SequentialSizesDerived)
{
    std::vector<ChampsimRecord> records;
    records.push_back(makeRecord(0x1000)); // size 3 (next at 0x1003)
    records.push_back(makeRecord(0x1003)); // size 7
    records.push_back(makeRecord(0x100a)); // last: default 4
    auto ss = serialize(records);
    Trace trace;
    ASSERT_EQ(importChampsimTrace(ss, trace), 3u);
    EXPECT_EQ(trace[0].size, 3u);
    EXPECT_EQ(trace[1].size, 7u);
    EXPECT_EQ(trace[2].size, 4u);
    std::string err;
    EXPECT_TRUE(validateTrace(trace, &err)) << err;
}

TEST(ChampsimImport, BranchTypeInference)
{
    std::vector<ChampsimRecord> records;
    // cond branch: writes ip, reads flags
    records.push_back(makeBranch(0x1000, true, false, true, true, false,
                                 false));
    // direct call: reads+writes ip and sp
    records.push_back(
        makeBranch(0x2000, true, true, true, false, true, true));
    // (indirect call checked separately below)
    // return: reads/writes sp, writes ip, no ip read
    records.push_back(
        makeBranch(0x3000, true, false, true, false, true, true));
    // indirect jump: writes ip, reads other reg
    records.push_back(makeBranch(0x4000, true, false, true, false, false,
                                 false, true));
    // direct jump: writes ip only
    records.push_back(
        makeBranch(0x5000, true, false, true, false, false, false));
    records.push_back(makeRecord(0x6000));
    auto ss = serialize(records);
    Trace trace;
    ASSERT_EQ(importChampsimTrace(ss, trace), 6u);
    EXPECT_EQ(trace[0].cls, InstClass::kCondBranch);
    EXPECT_EQ(trace[1].cls, InstClass::kCall);
    EXPECT_EQ(trace[2].cls, InstClass::kReturn);
    EXPECT_EQ(trace[3].cls, InstClass::kIndirectJump);
    EXPECT_EQ(trace[4].cls, InstClass::kDirectJump);
    // Taken targets point at the next record.
    EXPECT_EQ(trace[0].addr, 0x2000u);
    EXPECT_EQ(trace[3].addr, 0x5000u);
    std::string err;
    EXPECT_TRUE(validateTrace(trace, &err)) << err;
}

TEST(ChampsimImport, IndirectCallInference)
{
    std::vector<ChampsimRecord> records;
    records.push_back(makeBranch(0x1000, true, true, true, false, true,
                                 true, /*reads_other=*/true));
    records.push_back(makeRecord(0x5000));
    auto ss = serialize(records);
    Trace trace;
    ASSERT_EQ(importChampsimTrace(ss, trace), 2u);
    EXPECT_EQ(trace[0].cls, InstClass::kIndirectCall);
}

TEST(ChampsimImport, MemoryOperandsReduce)
{
    std::vector<ChampsimRecord> records;
    ChampsimRecord load = makeRecord(0x1000);
    load.source_memory[1] = 0x9000; // first non-zero slot wins
    load.source_registers[0] = 3;
    load.destination_registers[0] = 4;
    records.push_back(load);
    ChampsimRecord store = makeRecord(0x1004);
    store.destination_memory[0] = 0xa000;
    records.push_back(store);
    records.push_back(makeRecord(0x1008));
    auto ss = serialize(records);
    Trace trace;
    ASSERT_EQ(importChampsimTrace(ss, trace), 3u);
    EXPECT_EQ(trace[0].cls, InstClass::kLoad);
    EXPECT_EQ(trace[0].addr, 0x9000u);
    EXPECT_EQ(trace[0].src[0], 3u);
    EXPECT_EQ(trace[0].dst, 4u);
    EXPECT_EQ(trace[1].cls, InstClass::kStore);
    EXPECT_EQ(trace[1].addr, 0xa000u);
}

TEST(ChampsimImport, DiscontinuityRepairedAsJump)
{
    std::vector<ChampsimRecord> records;
    records.push_back(makeRecord(0x1000));
    records.push_back(makeRecord(0x9000)); // jump without branch flag
    records.push_back(makeRecord(0x9004));
    auto ss = serialize(records);
    Trace trace;
    ASSERT_EQ(importChampsimTrace(ss, trace), 3u);
    EXPECT_EQ(trace[0].cls, InstClass::kDirectJump);
    EXPECT_TRUE(trace[0].taken);
    EXPECT_EQ(trace[0].addr, 0x9000u);
    std::string err;
    EXPECT_TRUE(validateTrace(trace, &err)) << err;
}

TEST(ChampsimImport, MaxInstructionsHonored)
{
    std::vector<ChampsimRecord> records;
    for (int i = 0; i < 10; ++i)
        records.push_back(makeRecord(0x1000 + Addr(i) * 4));
    auto ss = serialize(records);
    Trace trace;
    EXPECT_EQ(importChampsimTrace(ss, trace, 5), 5u);
}

TEST(ChampsimImport, RandomizedStreamAlwaysValidates)
{
    Rng rng(77);
    std::vector<ChampsimRecord> records;
    Addr ip = 0x400000;
    for (int i = 0; i < 2000; ++i) {
        if (rng.chance(0.15)) {
            const bool taken = rng.chance(0.6);
            records.push_back(makeBranch(ip, taken, false, true, true,
                                         false, false));
            ip = taken ? 0x400000 + rng.below(4096) * 4 : ip + 4;
        } else {
            ChampsimRecord rec = makeRecord(ip);
            if (rng.chance(0.3))
                rec.source_memory[0] = 0x9000 + rng.below(1 << 16);
            records.push_back(rec);
            ip += 4;
        }
    }
    auto ss = serialize(records);
    Trace trace;
    ASSERT_GT(importChampsimTrace(ss, trace), 0u);
    std::string err;
    EXPECT_TRUE(validateTrace(trace, &err)) << err;
}

} // namespace
} // namespace sipre
