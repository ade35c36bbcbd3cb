#include "asmdb/rewriter.hpp"

#include <algorithm>
#include <unordered_set>
#include <vector>

namespace sipre::asmdb
{

RewriteResult
rewriteTrace(const Trace &original, const AsmdbPlan &plan,
             const CodeLayout &layout)
{
    RewriteResult result;
    result.trace.setName(original.name() + "+asmdb");
    result.trace.setSeed(original.seed());
    result.original_dynamic = original.size();
    result.inserted_static = plan.insertions.size();

    // The prefetches planned at each site, sorted, as the no-overhead
    // mode fires them.
    const SwPrefetchTriggers by_site = buildTriggers(plan);

    // Pass 1: find where prefetches go, so the rewritten trace is
    // allocated once at its exact size. Prefetches belong to the
    // fallthrough path within the site block: emit them only when
    // control reaches the site's terminating instruction sequentially
    // (a jump directly to the terminator skips block-body code,
    // including our insertion).
    struct Emission
    {
        std::size_t index;            ///< site instruction in `original`
        const std::vector<Addr> *pfs; ///< its encoded prefetch targets
    };
    std::vector<Emission> emissions;
    std::unordered_set<Addr> unique_pcs;
    unique_pcs.reserve(original.size() / 8);
    for (std::size_t i = 0; i < original.size(); ++i) {
        const TraceInstruction &inst = original[i];
        unique_pcs.insert(inst.pc);
        if (i == 0)
            continue;
        const auto site = by_site.find(inst.pc);
        if (site == by_site.end())
            continue;
        const TraceInstruction &prev = original[i - 1];
        if (!(prev.isBranch() && prev.taken) && prev.nextPc() == inst.pc) {
            emissions.push_back(Emission{i, &site->second});
            result.inserted_dynamic += site->second.size();
        }
    }
    result.original_static = unique_pcs.size();

    // Pass 2: write every instruction once, remapped, with the site's
    // prefetches just before it.
    result.trace.reserve(original.size() + result.inserted_dynamic);
    auto next = emissions.begin();
    for (std::size_t i = 0; i < original.size(); ++i) {
        const TraceInstruction &inst = original[i];
        TraceInstruction moved = inst;
        moved.pc = layout.map(inst.pc);
        if (next != emissions.end() && next->index == i) {
            const std::vector<Addr> &pfs = *next->pfs;
            const Addr base = moved.pc - 4 * pfs.size();
            for (std::size_t k = 0; k < pfs.size(); ++k) {
                // Remap the line; keep a ranged prefetch's line count.
                TraceInstruction pf;
                pf.pc = base + 4 * k;
                pf.cls = InstClass::kSwPrefetch;
                pf.addr = layout.mapLine(pfs[k] & ~Addr{63}) |
                          (pfs[k] & Addr{63});
                result.trace.append(pf);
            }
            ++next;
        }
        if (inst.isBranch() && inst.taken)
            moved.addr = layout.map(inst.addr);
        result.trace.append(moved);
    }
    return result;
}

SwPrefetchTriggers
buildTriggers(const AsmdbPlan &plan)
{
    // A ranged (coalesced) prefetch encodes its line count in the low
    // bits of the line-aligned target.
    SwPrefetchTriggers triggers;
    for (const Insertion &ins : plan.insertions) {
        triggers[ins.site_pc].push_back(ins.target_line |
                                        Addr{ins.range - 1u});
    }
    for (auto &[pc, targets] : triggers)
        std::sort(targets.begin(), targets.end());
    return triggers;
}

} // namespace sipre::asmdb
