/**
 * @file
 * Trace rewriting: apply an AsmDB plan to a trace, producing either a
 * new trace with SwPrefetch instructions and shifted addresses (the
 * paper's realistic mode) or a no-overhead trigger map (the paper's
 * idealized "AsmDB - No Insertion Overhead" mode).
 */
#ifndef SIPRE_ASMDB_REWRITER_HPP
#define SIPRE_ASMDB_REWRITER_HPP

#include <cstdint>

#include "asmdb/layout.hpp"
#include "asmdb/planner.hpp"
#include "frontend/frontend.hpp"
#include "trace/trace.hpp"

namespace sipre::asmdb
{

/** Outcome of rewriting one trace. */
struct RewriteResult
{
    Trace trace;                        ///< rewritten trace
    std::uint64_t inserted_static = 0;  ///< prefetch instructions added
    std::uint64_t inserted_dynamic = 0; ///< dynamic prefetch executions
    std::uint64_t original_static = 0;  ///< unique pcs before rewriting
    std::uint64_t original_dynamic = 0; ///< trace length before rewriting

    /** Fig. 7a: static code bloat. */
    double
    staticBloat() const
    {
        return original_static == 0
                   ? 0.0
                   : static_cast<double>(inserted_static) /
                         static_cast<double>(original_static);
    }

    /** Fig. 7b: dynamic code bloat. */
    double
    dynamicBloat() const
    {
        return original_dynamic == 0
                   ? 0.0
                   : static_cast<double>(inserted_dynamic) /
                         static_cast<double>(original_dynamic);
    }
};

/**
 * Rewrite a trace per the plan: prefetches are inserted at the end of
 * their site blocks (before the terminating instruction), all PCs and
 * branch targets are remapped through the new layout, and prefetch
 * targets point at the *new* location of the targeted line. The
 * rewritten trace is allocated once, at its exact size.
 */
RewriteResult rewriteTrace(const Trace &original, const AsmdbPlan &plan,
                           const CodeLayout &layout);

/**
 * Build the no-overhead trigger map: the same prefetches fire when the
 * site's terminating instruction is fetched, but no instruction is
 * inserted and no address shifts (targets stay in the old layout).
 */
SwPrefetchTriggers buildTriggers(const AsmdbPlan &plan);

} // namespace sipre::asmdb

#endif // SIPRE_ASMDB_REWRITER_HPP
