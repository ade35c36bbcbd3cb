/**
 * @file
 * Static program model used to synthesize CVP1-like instruction traces.
 *
 * A program is a set of functions arranged in an acyclic call DAG
 * (functions only call strictly deeper "levels", which bounds dynamic
 * call depth by construction). Each function is a list of basic blocks
 * laid out sequentially in the address space; block terminators give the
 * intra-function CFG (conditional branches, loop back-edges, jumps,
 * indirect jumps, calls, returns).
 *
 * The model is built deterministically from a seed, then a separate
 * walker (see workload.hpp) executes it to emit a dynamic trace. The
 * model itself is only a layout skeleton: a walker builds each function
 * when it first enters it, so a short trace pays only for the few
 * functions it reaches.
 */
#ifndef SIPRE_TRACE_SYNTH_PROGRAM_MODEL_HPP
#define SIPRE_TRACE_SYNTH_PROGRAM_MODEL_HPP

#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace sipre::synth
{

/** How a basic block ends. */
enum class TermKind : std::uint8_t {
    kFallthrough,   ///< no terminator instruction; falls into next block
    kCondForward,   ///< conditional branch, forward target
    kCondLoopBack,  ///< conditional branch, backward target (loop)
    kJump,          ///< unconditional direct jump, forward target
    kIndirectJump,  ///< indirect jump among several forward targets
    kCall,          ///< direct call, falls through after return
    kIndirectCall,  ///< indirect call among several callees
    kReturn         ///< function return
};

/** A static basic block within a function. */
struct BlockModel
{
    Addr addr = 0;            ///< address of the first instruction
    std::uint16_t body_instrs = 0; ///< non-terminator instructions
    TermKind term = TermKind::kReturn;

    // Control-flow parameters (meaning depends on term):
    std::uint32_t target_block = 0;  ///< block index for cond/jump terms
    std::vector<std::uint32_t> multi_targets; ///< indirect jump targets
    std::vector<std::uint32_t> callees;       ///< function ids for calls

    // Conditional-branch behaviour:
    std::uint16_t pattern_period = 2; ///< periodic pattern length
    std::uint16_t pattern_taken = 1;  ///< taken slots within the period
    double noise = 0.0;               ///< probability of flipping the pattern
    std::uint16_t loop_trips = 0;     ///< back-edge taken count per entry

    /**
     * Periodic schedule of callee/target indices for indirect sites;
     * deterministic so that history-based predictors can learn it.
     */
    std::vector<std::uint16_t> schedule;

    bool hasTerminatorInst() const { return term != TermKind::kFallthrough; }

    /** Instructions in this block including any terminator. */
    std::uint32_t
    totalInstrs() const
    {
        return body_instrs + (hasTerminatorInst() ? 1u : 0u);
    }

    /** Bytes occupied by this block (4-byte instructions). */
    std::uint32_t sizeBytes() const { return totalInstrs() * 4; }
};

/** A static function: contiguous blocks plus call-DAG level. */
struct FunctionModel
{
    Addr entry = 0;
    std::uint32_t level = 0;  ///< call-DAG level (0 = root, deeper levels called)
    std::vector<BlockModel> blocks;

    /** Bytes occupied by the whole function. */
    std::uint32_t
    sizeBytes() const
    {
        std::uint32_t total = 0;
        for (const auto &b : blocks)
            total += b.sizeBytes();
        return total;
    }
};

/** Knobs controlling the shape of a generated program. */
struct ProgramParams
{
    std::uint32_t levels = 4;            ///< call-DAG depth
    std::uint32_t functions_per_level = 64; ///< level-0 (root) count

    /**
     * Each deeper level has size_prev / level_shrink functions (min 8):
     * a pyramid, so deep helpers are shared across many requests and
     * stay cache-resident while root/mid levels thrash the L1-I.
     */
    double level_shrink = 3.0;

    /**
     * Block-count multiplier for level-0 (root/request-handler)
     * functions: servers concentrate code in large top-level handlers,
     * and AsmDB's insertion window must fit inside them.
     */
    double root_block_mult = 1.0;
    std::uint32_t min_blocks = 3;        ///< blocks per function
    std::uint32_t max_blocks = 10;
    std::uint32_t min_body = 2;          ///< body instructions per block
    std::uint32_t max_body = 10;
    double call_fraction = 0.30;         ///< chance a block ends in a call
    double loop_fraction = 0.15;         ///< chance of a loop back-edge
    double cond_fraction = 0.35;         ///< chance of a fwd cond branch
    double indirect_jump_fraction = 0.03;
    double indirect_call_fraction = 0.20;///< of call sites, how many indirect
    double branch_noise = 0.03;          ///< pattern-flip probability
    std::uint16_t loop_trips_min = 3;    ///< self-loop trip-count range
    std::uint16_t loop_trips_max = 16;
    double indirect_noise = 0.02;        ///< off-schedule indirect picks
    std::uint32_t max_indirect_targets = 6;
    std::uint32_t dispatcher_fanout = 0; ///< 0 = all level-0 functions

    /**
     * Fraction of dispatched requests that go to the eight hottest
     * request types (controls the hit/miss mix of the request stream).
     */
    double hot_request_fraction = 0.25;
};

/**
 * A static program: function 0 is the dispatcher (an infinite loop
 * indirect-calling level-0 functions); the rest form the call DAG.
 *
 * build() runs the generator over every function once, to lay the code
 * out, but keeps per function only what rebuilding it takes: the
 * generator state it started from, its level and its entry address.
 * function(id) replays that state through the same generator, so it
 * returns exactly the function an eager build of the whole program
 * would have held.
 */
class ProgramModel
{
  public:
    /** Lay a program out deterministically from params and a seed. */
    static ProgramModel build(const ProgramParams &params,
                              std::uint64_t seed);

    /** Functions in the program, the dispatcher included. */
    std::uint32_t
    functionCount() const
    {
        return static_cast<std::uint32_t>(starts_.size());
    }

    /** Build function `id`, its blocks laid out from its entry. */
    FunctionModel function(std::uint32_t id) const;

    std::uint32_t dispatcherId() const { return 0; }

    /** Total static code size in bytes (the "binary size"). */
    std::uint64_t codeBytes() const { return code_end_ - kCodeBase; }

    /** First address past the code segment. */
    Addr codeEnd() const { return code_end_; }

    static constexpr Addr kCodeBase = 0x400000;

  private:
    /** What function(id) replays to rebuild one function. */
    struct Start
    {
        Rng rng;                 ///< generator state before its first draw
        Addr entry = 0;
        std::uint32_t level = 0;
    };

    ProgramParams params_;
    std::uint64_t seed_ = 0;
    /** Function ids of level l are [level_bounds_[l], level_bounds_[l+1]). */
    std::vector<std::uint32_t> level_bounds_;
    std::vector<Start> starts_;
    Addr code_end_ = kCodeBase;
};

} // namespace sipre::synth

#endif // SIPRE_TRACE_SYNTH_PROGRAM_MODEL_HPP
