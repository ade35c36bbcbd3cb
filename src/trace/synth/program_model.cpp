#include "trace/synth/program_model.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace sipre::synth
{

namespace
{

/**
 * The per-level function-count pyramid as id bounds: function 0 is the
 * dispatcher, and level l holds ids [bounds[l], bounds[l+1]).
 */
std::vector<std::uint32_t>
makeLevelBounds(const ProgramParams &p)
{
    std::vector<std::uint32_t> bounds{1};
    double size = p.functions_per_level;
    for (std::uint32_t l = 0; l < p.levels; ++l) {
        const auto count =
            std::max<std::uint32_t>(8, static_cast<std::uint32_t>(size));
        bounds.push_back(bounds.back() + count);
        size /= p.level_shrink;
    }
    return bounds;
}

/**
 * Reset `b` to a default block but keep its vectors' capacity, so a
 * scratch function reused across builds stops allocating once grown.
 */
void
resetBlock(BlockModel &b)
{
    b.multi_targets.clear();
    b.callees.clear();
    b.schedule.clear();
    b = BlockModel{.multi_targets = std::move(b.multi_targets),
                   .callees = std::move(b.callees),
                   .schedule = std::move(b.schedule)};
}

/**
 * Build one non-dispatcher function's CFG into `fn`, drawing from `rng`.
 * Whatever `fn` held before is overwritten; its addresses are left to
 * layOut().
 */
void
buildFunction(const ProgramParams &p, std::uint32_t level,
              const std::vector<std::uint32_t> &level_bounds, Rng &rng,
              FunctionModel &fn)
{
    fn.level = level;
    const bool is_leaf = (level + 1 >= p.levels);

    const double mult = level == 0 ? p.root_block_mult : 1.0;
    const auto nblocks = static_cast<std::uint32_t>(
        std::max(2.0, rng.range(p.min_blocks, p.max_blocks) * mult));
    fn.blocks.resize(nblocks);

    for (std::uint32_t i = 0; i < nblocks; ++i) {
        BlockModel &b = fn.blocks[i];
        resetBlock(b);
        b.body_instrs =
            static_cast<std::uint16_t>(rng.range(p.min_body, p.max_body));

        if (i + 1 == nblocks) {
            b.term = TermKind::kReturn;
            continue;
        }

        // Pick a terminator kind from the configured mix. Calls are only
        // available off the leaf level; everything renormalizes onto the
        // remaining choices by falling through the ladder.
        const double roll = rng.uniform();
        double acc = is_leaf ? 0.0 : p.call_fraction;
        if (!is_leaf && roll < acc) {
            const bool indirect = rng.chance(p.indirect_call_fraction);
            b.term = indirect ? TermKind::kIndirectCall : TermKind::kCall;
            // Callees come from strictly deeper levels (70% the next
            // level down) so the call graph is acyclic and dynamic depth
            // is bounded by construction.
            auto pick_callee = [&]() {
                std::uint32_t callee_level =
                    rng.chance(0.7) ? level + 1
                                    : static_cast<std::uint32_t>(rng.range(
                                          level + 1, p.levels - 1));
                const std::uint32_t first = level_bounds[callee_level];
                return first + static_cast<std::uint32_t>(rng.below(
                                   level_bounds[callee_level + 1] - first));
            };
            const std::size_t n_callees =
                indirect ? rng.range(2, p.max_indirect_targets) : 1;
            b.callees.reserve(n_callees);
            for (std::size_t c = 0; c < n_callees; ++c)
                b.callees.push_back(pick_callee());
            if (indirect) {
                // Skewed periodic schedule: the hottest callee fills
                // about half the slots, mirroring real virtual-call
                // sites with a dominant receiver type.
                // Near-monomorphic site: one dominant receiver with
                // occasional other callees, which is both realistic and
                // learnable by a path-history target predictor.
                const std::size_t sched_len = rng.range(8, 24);
                b.schedule.reserve(sched_len);
                for (std::size_t s = 0; s < sched_len; ++s) {
                    b.schedule.push_back(static_cast<std::uint16_t>(
                        rng.chance(0.9) ? 0
                                        : rng.below(b.callees.size())));
                }
            }
            continue;
        }
        acc += p.loop_fraction;
        if (roll < acc) {
            // Self-loop only: the loop body is exactly this block, so
            // loops cannot nest and the instruction count per function
            // visit stays bounded.
            b.term = TermKind::kCondLoopBack;
            b.target_block = i;
            b.loop_trips = static_cast<std::uint16_t>(
                rng.range(p.loop_trips_min, p.loop_trips_max));
            continue;
        }
        acc += p.cond_fraction;
        if (roll < acc) {
            b.term = TermKind::kCondForward;
            b.target_block = static_cast<std::uint32_t>(
                rng.range(i + 1, std::min(i + 4, nblocks - 1)));
            if (rng.chance(0.90)) {
                // Heavily biased site (the common case in real code):
                // pattern_period == 0 marks it; pattern_taken holds the
                // majority direction, noise the minority probability.
                b.pattern_period = 0;
                b.pattern_taken = rng.chance(0.5) ? 1 : 0;
                b.noise = 0.001 + rng.uniform() * 0.01;
            } else {
                // Short periodic pattern plus configured noise.
                b.pattern_period =
                    static_cast<std::uint16_t>(rng.range(2, 6));
                b.pattern_taken = static_cast<std::uint16_t>(
                    rng.range(1, b.pattern_period - 1));
                b.noise = p.branch_noise;
            }
            continue;
        }
        acc += p.indirect_jump_fraction;
        if (roll < acc && i + 2 < nblocks) {
            b.term = TermKind::kIndirectJump;
            const std::size_t n_targets = std::min<std::size_t>(
                rng.range(2, p.max_indirect_targets), nblocks - i - 1);
            b.multi_targets.reserve(n_targets);
            for (std::size_t t = 0; t < n_targets; ++t) {
                b.multi_targets.push_back(static_cast<std::uint32_t>(
                    rng.range(i + 1, nblocks - 1)));
            }
            // One dominant target with occasional excursions.
            const std::size_t sched_len = rng.range(4, 16);
            b.schedule.reserve(sched_len);
            for (std::size_t s = 0; s < sched_len; ++s) {
                b.schedule.push_back(static_cast<std::uint16_t>(
                    rng.chance(0.8) ? 0
                                    : rng.below(b.multi_targets.size())));
            }
            continue;
        }
        // Occasionally a plain jump; otherwise fall through.
        if (rng.chance(0.25)) {
            b.term = TermKind::kJump;
            b.target_block = static_cast<std::uint32_t>(
                rng.range(i + 1, std::min(i + 3, nblocks - 1)));
        } else {
            b.term = TermKind::kFallthrough;
        }
    }
}

/**
 * Build the dispatcher into `fn`: an endless loop whose body
 * indirect-calls level-0 functions, standing in for a server
 * request-dispatch loop. Its schedule draws from its own generator.
 */
void
buildDispatcher(const ProgramParams &params,
                const std::vector<std::uint32_t> &level_bounds,
                std::uint64_t seed, FunctionModel &fn)
{
    fn.level = 0;
    fn.blocks.resize(3);
    for (BlockModel &b : fn.blocks)
        resetBlock(b);
    fn.blocks[0].body_instrs = 3;
    fn.blocks[0].term = TermKind::kFallthrough;
    fn.blocks[1].body_instrs = 2;
    fn.blocks[1].term = TermKind::kIndirectCall;
    const std::uint32_t roots = level_bounds[1] - level_bounds[0];
    const std::uint32_t fanout =
        params.dispatcher_fanout == 0
            ? roots
            : std::min(params.dispatcher_fanout, roots);
    fn.blocks[1].callees.reserve(fanout);
    for (std::uint32_t i = 0; i < fanout; ++i)
        fn.blocks[1].callees.push_back(level_bounds[0] + i);
    {
        // Every root appears in the schedule (full footprint), in a
        // fixed shuffled order with ~25% of slots re-visiting one of
        // the eight hottest request types.
        Rng sched_rng(seed ^ 0xd15bULL);
        auto &sched = fn.blocks[1].schedule;
        sched.resize(fanout);
        for (std::uint32_t i = 0; i < fanout; ++i)
            sched[i] = static_cast<std::uint16_t>(i);
        for (std::uint32_t i = fanout - 1; i > 0; --i) {
            const auto j = sched_rng.below(i + 1);
            std::swap(sched[i], sched[j]);
        }
        // Hot requests arrive in bursts of a single type so that the
        // schedule stays mostly learnable: within a burst the
        // dispatcher target repeats; only burst boundaries are
        // genuinely ambiguous.
        const double h = std::clamp(params.hot_request_fraction, 0.0, 0.75);
        std::size_t hot_slots =
            static_cast<std::size_t>(fanout * h / (1.0 - h));
        while (hot_slots > 0) {
            const std::size_t run =
                std::min<std::size_t>(hot_slots, sched_rng.range(12, 24));
            const auto hot_root = static_cast<std::uint16_t>(
                sched_rng.below(std::min(fanout, 8u)));
            const auto pos = static_cast<std::ptrdiff_t>(
                sched_rng.below(sched.size()));
            sched.insert(sched.begin() + pos, run, hot_root);
            hot_slots -= run;
        }
    }
    fn.blocks[2].body_instrs = 2;
    fn.blocks[2].term = TermKind::kCondLoopBack;
    fn.blocks[2].target_block = 0;
    fn.blocks[2].loop_trips = 0xffff; // effectively endless
}

/**
 * Lay `fn`'s blocks out sequentially from `entry`; returns the next
 * function's entry (16-byte aligned).
 */
Addr
layOut(FunctionModel &fn, Addr entry)
{
    fn.entry = entry;
    Addr cursor = entry;
    for (BlockModel &block : fn.blocks) {
        block.addr = cursor;
        cursor += block.sizeBytes();
    }
    return (cursor + 15) & ~Addr{15};
}

} // namespace

ProgramModel
ProgramModel::build(const ProgramParams &params, std::uint64_t seed)
{
    SIPRE_ASSERT(params.levels >= 1, "program needs at least one level");
    SIPRE_ASSERT(params.functions_per_level >= 1,
                 "program needs at least one function per level");
    SIPRE_ASSERT(params.min_blocks >= 2 &&
                     params.max_blocks >= params.min_blocks,
                 "invalid block-count range");
    SIPRE_ASSERT(params.min_body >= 1 && params.max_body >= params.min_body,
                 "invalid body-size range");
    SIPRE_ASSERT(params.level_shrink >= 1.0,
                 "level_shrink must not grow the pyramid");

    ProgramModel prog;
    prog.params_ = params;
    prog.seed_ = seed;
    prog.level_bounds_ = makeLevelBounds(params);
    prog.starts_.reserve(prog.level_bounds_.back());

    // Every function is generated once, in id order, into one scratch
    // function whose only use is its size; each keeps the generator
    // state it started from so function(id) can replay it.
    Rng rng(seed);
    FunctionModel scratch;
    Addr cursor = kCodeBase;
    buildDispatcher(params, prog.level_bounds_, seed, scratch);
    prog.starts_.push_back(Start{rng, cursor, 0});
    cursor = layOut(scratch, cursor);
    for (std::uint32_t level = 0; level < params.levels; ++level) {
        for (std::uint32_t id = prog.level_bounds_[level];
             id < prog.level_bounds_[level + 1]; ++id) {
            prog.starts_.push_back(Start{rng, cursor, level});
            buildFunction(params, level, prog.level_bounds_, rng, scratch);
            cursor = layOut(scratch, cursor);
        }
    }
    prog.code_end_ = cursor;
    return prog;
}

FunctionModel
ProgramModel::function(std::uint32_t id) const
{
    SIPRE_ASSERT(id < functionCount(), "function id out of range");
    const Start &start = starts_[id];
    FunctionModel fn;
    if (id == dispatcherId()) {
        buildDispatcher(params_, level_bounds_, seed_, fn);
    } else {
        Rng rng = start.rng;
        buildFunction(params_, start.level, level_bounds_, rng, fn);
    }
    layOut(fn, start.entry);
    return fn;
}

} // namespace sipre::synth
