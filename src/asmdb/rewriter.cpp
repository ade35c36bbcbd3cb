#include "asmdb/rewriter.hpp"

#include <algorithm>
#include <unordered_map>
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

    // Each site's prefetches, sorted as the no-overhead mode fires them,
    // with their targets moved to the new layout (a ranged prefetch
    // keeps its line count in the low bits).
    struct Site
    {
        std::vector<Addr> targets;
        bool emits = false;
        Trace::StaticIndex first = 0; ///< table index of its first prefetch
    };
    std::unordered_map<Addr, Site> sites;
    for (auto &[pc, pfs] : buildTriggers(plan)) {
        Site &site = sites[pc];
        site.targets = std::move(pfs);
        for (Addr &target : site.targets)
            target = layout.mapLine(target & ~Addr{63}) | (target & Addr{63});
    }

    // One lookup per static entry, not per execution.
    const std::vector<StaticInstruction> &statics = original.statics();
    std::vector<Site *> site_of(statics.size(), nullptr);
    for (std::size_t s = 0; s < statics.size(); ++s) {
        const auto it = sites.find(statics[s].pc);
        if (it != sites.end())
            site_of[s] = &it->second;
    }

    // Prefetches belong to the fallthrough path within the site block:
    // emit them only when control reaches the site's terminating
    // instruction sequentially (a jump directly to the terminator skips
    // block-body code, including our insertion).
    auto emitsAt = [&original, &statics](std::size_t i) {
        const StaticInstruction &prev = statics[original.staticIndex(i - 1)];
        return !(prev.isBranch() && original.taken(i - 1)) &&
               prev.nextPc() == statics[original.staticIndex(i)].pc;
    };

    // Pass 1: count the prefetch executions and entries, so the rewrite
    // is allocated once at its exact size, and the executed pcs.
    std::vector<char> executed(statics.size(), 0);
    std::size_t prefetch_statics = 0;
    for (std::size_t i = 0; i < original.size(); ++i) {
        const Trace::StaticIndex s = original.staticIndex(i);
        executed[s] = 1;
        Site *site = site_of[s];
        if (i == 0 || site == nullptr || !emitsAt(i))
            continue;
        result.inserted_dynamic += site->targets.size();
        if (!site->emits)
            prefetch_statics += site->targets.size();
        site->emits = true;
    }
    {
        std::vector<Addr> pcs;
        pcs.reserve(statics.size());
        for (std::size_t s = 0; s < statics.size(); ++s) {
            if (executed[s])
                pcs.push_back(statics[s].pc);
        }
        std::sort(pcs.begin(), pcs.end());
        result.original_static = static_cast<std::uint64_t>(
            std::unique(pcs.begin(), pcs.end()) - pcs.begin());
    }

    // Pass 2: the original's table with each pc remapped once, at the
    // same indices, then each emitting site's prefetches as entries of
    // their own, just below the site's new pc.
    result.trace.reserve(original.size() + result.inserted_dynamic,
                         statics.size() + prefetch_statics);
    for (const StaticInstruction &inst : statics) {
        StaticInstruction moved = inst;
        moved.pc = layout.map(inst.pc);
        result.trace.addStatic(moved);
    }
    for (auto &[pc, site] : sites) {
        if (!site.emits)
            continue;
        const Addr base = layout.map(pc) - 4 * site.targets.size();
        for (std::size_t k = 0; k < site.targets.size(); ++k) {
            StaticInstruction pf;
            pf.pc = base + 4 * k;
            pf.cls = InstClass::kSwPrefetch;
            const Trace::StaticIndex index = result.trace.addStatic(pf);
            if (k == 0)
                site.first = index;
        }
    }

    // Pass 3: copy every execution through, with the site's prefetches
    // just before it. A branch's target moves whether or not that
    // execution was taken, so each static branch keeps one target; a
    // target the trace does not record (0) stays 0.
    for (std::size_t i = 0; i < original.size(); ++i) {
        const Trace::StaticIndex s = original.staticIndex(i);
        const Site *site = site_of[s];
        if (i > 0 && site != nullptr && emitsAt(i)) {
            for (std::size_t k = 0; k < site->targets.size(); ++k) {
                result.trace.appendExecution(
                    site->first + static_cast<Trace::StaticIndex>(k), false,
                    site->targets[k]);
            }
        }
        const Addr addr = original.addr(i);
        result.trace.appendExecution(
            s, original.taken(i),
            statics[s].isBranch() && addr != 0 ? layout.map(addr) : addr);
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
