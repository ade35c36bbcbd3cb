#include "trace/trace_stats.hpp"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace sipre
{

TraceStats
computeTraceStats(const Trace &trace)
{
    TraceStats s;
    std::unordered_map<Addr, std::uint8_t> unique_pcs;
    std::unordered_set<Addr> unique_lines;
    unique_pcs.reserve(trace.size() / 8 + 16);

    for (const auto &inst : trace) {
        ++s.dynamic_instructions;
        ++s.per_class[static_cast<std::size_t>(inst.cls)];
        unique_pcs.emplace(inst.pc, inst.size);
        unique_lines.insert(inst.pc >> 6);
        // An instruction may straddle into the next line.
        unique_lines.insert((inst.pc + inst.size - 1) >> 6);

        if (inst.isBranch()) {
            ++s.branches;
            if (inst.taken)
                ++s.taken_branches;
            if (inst.cls == InstClass::kCondBranch)
                ++s.conditional_branches;
            if (inst.cls == InstClass::kCall ||
                inst.cls == InstClass::kIndirectCall)
                ++s.calls;
            if (inst.cls == InstClass::kReturn)
                ++s.returns;
            if (inst.isIndirect())
                ++s.indirect_branches;
        }
        if (inst.isLoad())
            ++s.loads;
        if (inst.isStore())
            ++s.stores;
        if (inst.isSwPrefetch())
            ++s.sw_prefetches;
    }

    s.static_instructions = unique_pcs.size();
    for (const auto &[pc, size] : unique_pcs)
        s.code_footprint_bytes += size;
    s.code_footprint_lines = unique_lines.size();
    return s;
}

bool
validateTrace(const Trace &trace, std::string *error)
{
    auto fail = [&](std::size_t idx, const std::string &what) {
        if (error) {
            std::ostringstream oss;
            oss << "instruction " << idx << ": " << what;
            *error = oss.str();
        }
        return false;
    };

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto &inst = trace[i];
        if (inst.size == 0)
            return fail(i, "zero-size instruction");
        if (inst.isUnconditional() && !inst.taken)
            return fail(i, "unconditional branch marked not-taken");
        if (inst.isBranch() && inst.taken && inst.addr == 0)
            return fail(i, "taken branch without a target");
        if (!inst.isBranch() && !inst.isSwPrefetch() && inst.taken)
            return fail(i, "non-branch marked taken");
        if (inst.isMemory() && inst.addr == 0)
            return fail(i, "memory instruction without an address");
        if (inst.addrKind() == AddrKind::kNone && inst.addr != 0)
            return fail(i, "address on a class that takes none");
        if (inst.isSwPrefetch() && inst.addr == 0)
            return fail(i, "software prefetch without a target");

        if (i + 1 < trace.size()) {
            const auto &next = trace[i + 1];
            const Addr expected =
                (inst.isBranch() && inst.taken) ? inst.addr : inst.nextPc();
            if (next.pc != expected)
                return fail(i, "control flow does not reach successor pc");
        }
    }
    if (error)
        error->clear();
    return true;
}

} // namespace sipre
