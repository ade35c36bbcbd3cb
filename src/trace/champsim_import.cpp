#include "trace/champsim_import.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <unordered_map>
#include <vector>

namespace sipre
{

namespace
{

bool
hasReg(const std::uint8_t *regs, std::size_t n, std::uint8_t reg)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (regs[i] == reg)
            return true;
    }
    return false;
}

bool
hasOtherReg(const std::uint8_t *regs, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (regs[i] != 0 && regs[i] != kChampsimStackPointer &&
            regs[i] != kChampsimFlags &&
            regs[i] != kChampsimInstructionPointer) {
            return true;
        }
    }
    return false;
}

/** ChampSim's branch-type inference from register usage. */
InstClass
classifyBranch(const ChampsimRecord &rec)
{
    const bool reads_ip =
        hasReg(rec.source_registers, 4, kChampsimInstructionPointer);
    const bool writes_ip =
        hasReg(rec.destination_registers, 2, kChampsimInstructionPointer);
    const bool reads_flags =
        hasReg(rec.source_registers, 4, kChampsimFlags);
    const bool reads_sp =
        hasReg(rec.source_registers, 4, kChampsimStackPointer);
    const bool writes_sp =
        hasReg(rec.destination_registers, 2, kChampsimStackPointer);
    const bool reads_other = hasOtherReg(rec.source_registers, 4);

    if (!writes_ip)
        return InstClass::kCondBranch; // unusual encoding: treat as cond

    if (reads_sp && writes_sp) {
        if (reads_ip)
            return reads_other ? InstClass::kIndirectCall
                               : InstClass::kCall;
        return InstClass::kReturn;
    }
    if (reads_flags)
        return InstClass::kCondBranch;
    if (reads_other)
        return InstClass::kIndirectJump;
    return InstClass::kDirectJump;
}

InstClass
classifyNonBranch(const ChampsimRecord &rec)
{
    bool has_load = false, has_store = false;
    for (const auto addr : rec.source_memory)
        has_load |= addr != 0;
    for (const auto addr : rec.destination_memory)
        has_store |= addr != 0;
    if (has_load)
        return InstClass::kLoad;
    if (has_store)
        return InstClass::kStore;
    return InstClass::kAlu;
}

} // namespace

std::size_t
importChampsimTrace(std::istream &is, Trace &trace,
                    std::size_t max_instructions)
{
    trace.clear();

    std::vector<ChampsimRecord> records;
    ChampsimRecord rec;
    while (is.read(reinterpret_cast<char *>(&rec), sizeof rec)) {
        records.push_back(rec);
        if (max_instructions != 0 && records.size() >= max_instructions)
            break;
    }
    if (records.empty())
        return 0;

    // Pass 1: derive per-PC instruction sizes from sequential pairs
    // (non-branch record followed by a higher PC within 16 bytes).
    std::unordered_map<std::uint64_t, std::uint8_t> sizes;
    for (std::size_t i = 0; i + 1 < records.size(); ++i) {
        const auto &cur = records[i];
        const auto &next = records[i + 1];
        if (cur.is_branch && cur.branch_taken)
            continue;
        const std::uint64_t delta = next.ip - cur.ip;
        if (delta == 0 || delta > 16)
            continue;
        auto [it, inserted] =
            sizes.emplace(cur.ip, static_cast<std::uint8_t>(delta));
        if (!inserted) {
            it->second = std::min(it->second,
                                  static_cast<std::uint8_t>(delta));
        }
    }

    // Pass 2: build sipre records; repair any residual discontinuity.
    trace.reserve(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &r = records[i];
        TraceInstruction inst;
        inst.pc = r.ip;
        auto size_it = sizes.find(r.ip);
        inst.size = size_it != sizes.end() ? size_it->second : 4;

        inst.cls = r.is_branch ? classifyBranch(r) : classifyNonBranch(r);
        if (inst.isBranch()) {
            inst.taken = r.branch_taken != 0;
            if (i + 1 < records.size())
                inst.addr = inst.taken ? records[i + 1].ip : 0;
            if (inst.taken && inst.addr == 0)
                inst.taken = false; // trailing taken branch: drop intent
            if (inst.isUnconditional() && !inst.taken) {
                // The format occasionally marks unconditional branches
                // not-taken at trace boundaries; degrade to conditional
                // so the record stays self-consistent.
                inst.cls = InstClass::kCondBranch;
            }
        } else if (inst.isMemory()) {
            const std::uint64_t *pool =
                inst.isLoad() ? r.source_memory : r.destination_memory;
            const std::size_t pool_size = inst.isLoad() ? 4 : 2;
            for (std::size_t m = 0; m < pool_size; ++m) {
                if (pool[m] != 0) {
                    inst.addr = pool[m];
                    break;
                }
            }
            if (inst.addr == 0)
                inst.cls = InstClass::kAlu;
        }

        // Register operands: first two non-zero sources, first dest.
        std::size_t s = 0;
        for (const auto reg : r.source_registers) {
            if (reg != 0 && s < inst.src.size())
                inst.src[s++] = reg;
        }
        if (!inst.isStore() && r.destination_registers[0] != 0)
            inst.dst = r.destination_registers[0];

        // Control-flow repair: if the next record does not follow
        // sequentially and this instruction is not a taken branch,
        // convert it into a taken direct jump to the next PC. The jump
        // target replaces any effective address the record carried.
        if (i + 1 < records.size() && !(inst.isBranch() && inst.taken)) {
            const std::uint64_t next_ip = records[i + 1].ip;
            if (next_ip != inst.pc + inst.size) {
                inst.cls = InstClass::kDirectJump;
                inst.taken = true;
                inst.addr = next_ip;
                inst.dst = kNoReg;
            }
        }
        trace.append(inst);
    }
    return trace.size();
}

bool
importChampsimFile(const std::string &path, Trace &trace,
                   std::size_t max_instructions)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    trace.setName(path);
    return importChampsimTrace(is, trace, max_instructions) > 0;
}

} // namespace sipre
