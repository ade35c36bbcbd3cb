#include "trace/synth/workload.hpp"

#include <array>
#include <functional>
#include <memory>

#include "util/bits.hpp"
#include "util/logging.hpp"

namespace sipre::synth
{

namespace
{

/** Stable 64-bit hash of a workload name (FNV-1a). */
std::uint64_t
hashName(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : name) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Jitter a base value by +/- spread (fractional), deterministically. */
std::uint32_t
jitter(Rng &rng, std::uint32_t base, double spread)
{
    const double factor = 1.0 + spread * (rng.uniform() * 2.0 - 1.0);
    const double v = base * factor;
    return v < 1.0 ? 1u : static_cast<std::uint32_t>(v);
}

} // namespace

WorkloadSpec
makeWorkloadSpec(const std::string &name, Archetype archetype,
                 std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.archetype = archetype;
    spec.seed = seed ^ hashName(name);

    Rng rng(spec.seed ^ 0xa5a5a5a5ULL);
    ProgramParams &p = spec.program;

    switch (archetype) {
      case Archetype::kServer:
        // Deep software stacks, enormous instruction footprints: the
        // front-end-bound regime (upper half of the 2-28 MPKI band).
        p.levels = 6;
        p.functions_per_level = jitter(rng, 950, 0.40);
        p.root_block_mult = 2.5;
        p.level_shrink = 3.0;
        p.min_blocks = 4;
        p.max_blocks = 12;
        p.min_body = 3;
        p.max_body = 11;
        p.call_fraction = 0.17;
        p.loop_fraction = 0.04;
        p.hot_request_fraction = 0.35;
        p.cond_fraction = 0.34;
        p.indirect_call_fraction = 0.15;
        p.branch_noise = 0.01 + rng.uniform() * 0.015;
        p.loop_trips_min = 10;
        p.loop_trips_max = 40;
        p.indirect_noise = 0.01;
        spec.heap_bytes = 1ull << 20;
        spec.load_miss_bias = 0.10;
        break;
      case Archetype::kInteger:
        // Mixed control flow, moderate footprints (middle of the band).
        p.levels = 4;
        p.functions_per_level = jitter(rng, 240, 0.45);
        p.root_block_mult = 2.5;
        p.level_shrink = 2.5;
        p.min_blocks = 3;
        p.max_blocks = 10;
        p.min_body = 2;
        p.max_body = 10;
        p.call_fraction = 0.20;
        p.loop_fraction = 0.20;
        p.hot_request_fraction = 0.35;
        p.cond_fraction = 0.38;
        p.indirect_call_fraction = 0.15;
        p.branch_noise = 0.015 + rng.uniform() * 0.02;
        p.loop_trips_min = 4;
        p.loop_trips_max = 20;
        spec.heap_bytes = 1ull << 20;
        spec.load_miss_bias = 0.08;
        break;
      case Archetype::kCrypto:
        // Loop-heavy kernels over a still-large code base (bottom of the
        // band: ~2-6 MPKI).
        p.levels = 3;
        p.functions_per_level = jitter(rng, 42, 0.30);
        p.root_block_mult = 2.5;
        p.level_shrink = 2.0;
        p.min_blocks = 4;
        p.max_blocks = 12;
        p.min_body = 3;
        p.max_body = 12;
        p.call_fraction = 0.15;
        p.loop_fraction = 0.30;
        p.cond_fraction = 0.30;
        p.indirect_call_fraction = 0.08;
        p.branch_noise = 0.008 + rng.uniform() * 0.008;
        p.loop_trips_min = 8;
        p.loop_trips_max = 24;
        p.indirect_noise = 0.01;
        spec.heap_bytes = 1ull << 19;
        spec.load_miss_bias = 0.05;
        break;
    }
    return spec;
}

std::vector<WorkloadSpec>
cvp1LikeSuite()
{
    // Workload names exactly as listed in the paper's Figure 1.
    static const std::array<const char *, 48> kNames = {
        "public_srv_60",  "secret_crypto52", "secret_crypto80",
        "secret_crypto90", "secret_int_124", "secret_int_155",
        "secret_int_290", "secret_int_327", "secret_int_44",
        "secret_int_624", "secret_int_678", "secret_int_706",
        "secret_int_83",  "secret_int_86",  "secret_int_948",
        "secret_int_965", "secret_srv12",   "secret_srv128",
        "secret_srv194",  "secret_srv207",  "secret_srv21",
        "secret_srv222",  "secret_srv225",  "secret_srv255",
        "secret_srv259",  "secret_srv32",   "secret_srv408",
        "secret_srv41",   "secret_srv426",  "secret_srv442",
        "secret_srv48",   "secret_srv495",  "secret_srv504",
        "secret_srv537",  "secret_srv540",  "secret_srv582",
        "secret_srv61",   "secret_srv617",  "secret_srv641",
        "secret_srv669",  "secret_srv702",  "secret_srv727",
        "secret_srv73",   "secret_srv742",  "secret_srv757",
        "secret_srv764",  "secret_srv771",  "secret_srv85",
    };

    std::vector<WorkloadSpec> suite;
    suite.reserve(kNames.size());
    for (const char *name : kNames) {
        const std::string n = name;
        Archetype arch = Archetype::kServer;
        if (n.find("crypto") != std::string::npos)
            arch = Archetype::kCrypto;
        else if (n.find("int") != std::string::npos)
            arch = Archetype::kInteger;
        suite.push_back(makeWorkloadSpec(n, arch, 0x517e2023ULL));
    }
    return suite;
}

std::vector<WorkloadSpec>
cvp1LikeSuite(std::size_t max_workloads)
{
    auto suite = cvp1LikeSuite();
    if (suite.size() > max_workloads)
        suite.resize(max_workloads);
    return suite;
}

const WorkloadSpec *
findWorkload(std::string_view name)
{
    static const std::vector<WorkloadSpec> suite = cvp1LikeSuite();
    for (const WorkloadSpec &spec : suite) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

namespace
{

/**
 * The dynamic walker: executes the static program model, emitting one
 * TraceInstruction per simulated instruction. It builds each function
 * the first time control enters it, so a short walk never builds the
 * thousands of functions it does not reach.
 */
class Walker
{
  public:
    Walker(const WorkloadSpec &spec, const ProgramModel &prog)
        : spec_(spec), prog_(prog), rng_(spec.seed ^ 0x77a1ce5ULL)
    {
        entered_.resize(prog.functionCount());
        global_cursor_.assign(prog.functionCount(), 0);
        enter(prog.dispatcherId());
        frames_.push_back(Frame{prog.dispatcherId(), 0});
    }

    Trace
    run(std::size_t num_instructions)
    {
        Trace trace(spec_.name);
        trace.setSeed(spec_.seed);
        // At most one static entry per instruction of the program.
        trace.reserve(num_instructions,
                      std::min<std::size_t>(num_instructions,
                                            prog_.codeBytes() / 4));
        while (trace.size() < num_instructions)
            step(trace, num_instructions);
        return trace;
    }

  private:
    struct Frame
    {
        std::uint32_t fn;
        std::uint32_t block;
    };

    static constexpr Trace::StaticIndex kUnseen = ~Trace::StaticIndex{0};

    /**
     * A block's walk state: its visit counter and the trace's static
     * entry for its first instruction. A block's instructions execute
     * in order and nothing else runs in between, so its first visit
     * adds their entries in a row and every later visit reuses them.
     */
    struct BlockState
    {
        std::uint32_t visits = 0;
        Trace::StaticIndex first_static = kUnseen;
    };

    /** Where a block's terminator goes: its pc and static entry. */
    struct Term
    {
        bool first;               ///< add the entry (first visit)
        Trace::StaticIndex index;
        Addr pc;
    };

    /** A function control has entered, with its blocks' walk state. */
    struct Entered
    {
        FunctionModel model;
        std::vector<BlockState> blocks;
    };

    /** Function `id`, built on its first entry. */
    Entered &
    enter(std::uint32_t id)
    {
        std::unique_ptr<Entered> &slot = entered_[id];
        if (slot == nullptr) {
            slot = std::make_unique<Entered>();
            slot->model = prog_.function(id);
            slot->blocks.assign(slot->model.blocks.size(), BlockState{});
        }
        return *slot;
    }

    /** Statically-fixed per-PC properties derived by hashing. */
    std::uint64_t staticHash(Addr pc) const { return mix64(pc ^ spec_.seed); }

    /** The body (non-branch) instruction at pc, whose hash is h. */
    static StaticInstruction
    bodyShape(Addr pc, std::uint64_t h)
    {
        StaticInstruction inst;
        inst.pc = pc;

        // Class distribution is a static property of the PC.
        const unsigned roll = h % 1000;
        if (roll < 550)
            inst.cls = InstClass::kAlu;
        else if (roll < 750)
            inst.cls = InstClass::kLoad;
        else if (roll < 850)
            inst.cls = InstClass::kStore;
        else if (roll < 920)
            inst.cls = InstClass::kFp;
        else if (roll < 995)
            inst.cls = InstClass::kMul;
        else
            inst.cls = InstClass::kDiv;

        inst.src[0] = static_cast<RegId>(1 + ((h >> 16) & 0x1f));
        if (((h >> 24) & 3) != 0)
            inst.src[1] = static_cast<RegId>(1 + ((h >> 32) & 0x1f));
        if (inst.cls != InstClass::kStore)
            inst.dst = static_cast<RegId>(1 + ((h >> 8) & 0x1f));
        return inst;
    }

    /**
     * Emit one body (non-branch) instruction at pc, whose static entry
     * is `index`; `first` adds that entry, on the block's first visit.
     */
    void
    emitBody(Trace &trace, bool first, Trace::StaticIndex index, Addr pc,
             std::uint32_t fn_id)
    {
        const std::uint64_t h = staticHash(pc);
        if (first)
            trace.addStatic(bodyShape(pc, h));
        const InstClass cls = trace.statics()[index].cls;
        const bool memory =
            cls == InstClass::kLoad || cls == InstClass::kStore;
        trace.appendExecution(index, false,
                              memory ? dataAddress(h, fn_id) : 0);
    }

    /** Produce a data effective address for a load/store at a PC. */
    Addr
    dataAddress(std::uint64_t h, std::uint32_t fn_id)
    {
        const unsigned region = (h >> 40) % 10;
        if (region < 5) {
            // Stack frame slot: tight locality per call depth.
            const Addr sp = kStackBase - frames_.size() * 256;
            return sp + ((h >> 44) & 0xf) * 8;
        }
        if (region < 8) {
            // Global array walked with a stride. Arrays are shared among
            // function groups so the global data footprint stays
            // LLC-resident (the CVP1 server traces are front-end-bound,
            // not DRAM-bound on data).
            Addr &cursor = global_cursor_[fn_id];
            const Addr base = kGlobalBase + Addr{fn_id % 64} * 4096;
            const Addr addr = base + cursor;
            cursor = (cursor + 8) & 0x3ff;
            return addr;
        }
        // Heap: random within the configured working set; a load_miss_bias
        // fraction roams the full heap (likely L2/LLC misses).
        const Addr span = rng_.chance(spec_.load_miss_bias)
                              ? spec_.heap_bytes
                              : std::max<std::uint64_t>(
                                    spec_.heap_bytes / 32, 4096);
        return kHeapBase + (rng_.below(span) & ~Addr{7});
    }

    /** Execute (emit) the block at the top frame, then advance control. */
    void
    step(Trace &trace, std::size_t budget)
    {
        Frame &frame = frames_.back();
        Entered &entered = *entered_[frame.fn];
        const FunctionModel &f = entered.model;
        const BlockModel &b = f.blocks[frame.block];
        const std::uint32_t fn_id = frame.fn;
        const std::uint32_t block_id = frame.block;

        BlockState &state = entered.blocks[block_id];
        const bool first = state.first_static == kUnseen;
        if (first) {
            state.first_static =
                static_cast<Trace::StaticIndex>(trace.statics().size());
        }
        for (std::uint32_t k = 0;
             k < b.body_instrs && trace.size() < budget; ++k) {
            emitBody(trace, first, state.first_static + k,
                     b.addr + Addr{k} * 4, fn_id);
        }
        if (trace.size() >= budget)
            return;

        const std::uint32_t visit = state.visits++;
        const Addr term_pc = b.addr + Addr{b.body_instrs} * 4;
        const Term term{first, state.first_static + b.body_instrs, term_pc};

        switch (b.term) {
          case TermKind::kFallthrough:
            frame.block = block_id + 1;
            return;
          case TermKind::kCondForward: {
            // pattern_period == 0 marks a biased site (pattern_taken is
            // the majority direction, noise the minority probability);
            // otherwise the outcome follows a periodic pattern.
            bool taken = b.pattern_period == 0
                             ? b.pattern_taken != 0
                             : (visit % b.pattern_period) < b.pattern_taken;
            if (rng_.chance(b.noise))
                taken = !taken;
            emitBranch(trace, term, InstClass::kCondBranch, taken,
                       f.blocks[b.target_block].addr);
            frame.block = taken ? b.target_block : block_id + 1;
            return;
          }
          case TermKind::kCondLoopBack: {
            // Loop with a fixed trip count: taken loop_trips times, then
            // one not-taken exit, repeating.
            const bool taken =
                b.loop_trips == 0xffff ||
                (visit % (std::uint32_t{b.loop_trips} + 1)) != b.loop_trips;
            emitBranch(trace, term, InstClass::kCondBranch, taken,
                       f.blocks[b.target_block].addr);
            frame.block = taken ? b.target_block : block_id + 1;
            return;
          }
          case TermKind::kJump:
            emitBranch(trace, term, InstClass::kDirectJump, true,
                       f.blocks[b.target_block].addr);
            frame.block = b.target_block;
            return;
          case TermKind::kIndirectJump: {
            // Periodic target selection with rare surprises, so indirect
            // predictors have something learnable.
            std::size_t idx = b.schedule[visit % b.schedule.size()];
            if (rng_.chance(spec_.program.indirect_noise))
                idx = rng_.below(b.multi_targets.size());
            const std::uint32_t target = b.multi_targets[idx];
            emitBranch(trace, term, InstClass::kIndirectJump, true,
                       f.blocks[target].addr);
            frame.block = target;
            return;
          }
          case TermKind::kCall:
          case TermKind::kIndirectCall: {
            std::size_t idx = 0;
            if (b.term == TermKind::kIndirectCall) {
                // Replay the site's periodic callee schedule with rare
                // off-schedule requests.
                idx = b.schedule[visit % b.schedule.size()];
                if (rng_.chance(spec_.program.indirect_noise))
                    idx = rng_.below(b.callees.size());
            }
            const std::uint32_t callee = b.callees[idx];
            emitBranch(trace, term,
                       b.term == TermKind::kCall ? InstClass::kCall
                                                 : InstClass::kIndirectCall,
                       true, enter(callee).model.entry);
            // Resume at the next block of the caller after the return.
            frame.block = block_id + 1;
            frames_.push_back(Frame{callee, 0});
            return;
          }
          case TermKind::kReturn: {
            SIPRE_ASSERT(frames_.size() > 1,
                         "return underflow: dispatcher never returns");
            frames_.pop_back();
            const Frame &caller = frames_.back();
            const FunctionModel &cf = entered_[caller.fn]->model;
            emitBranch(trace, term, InstClass::kReturn, true,
                       cf.blocks[caller.block].addr);
            return;
          }
        }
    }

    void
    emitBranch(Trace &trace, const Term &term, InstClass cls, bool taken,
               Addr target)
    {
        // Branches carry no register dependencies in this model so that
        // resolution latency reflects the pipeline, not a random data
        // dependence on an arbitrarily old producer.
        if (term.first) {
            StaticInstruction inst;
            inst.pc = term.pc;
            inst.cls = cls;
            trace.addStatic(inst);
        }
        trace.appendExecution(term.index, taken, target);
    }

    static constexpr Addr kStackBase = 0x7fff00000000ULL;
    static constexpr Addr kGlobalBase = 0x10000000ULL;
    static constexpr Addr kHeapBase = 0x20000000ULL;

    const WorkloadSpec &spec_;
    const ProgramModel &prog_;
    Rng rng_;
    std::vector<Frame> frames_;
    /** By function id; null until control first enters the function. */
    std::vector<std::unique_ptr<Entered>> entered_;
    std::vector<Addr> global_cursor_;
};

} // namespace

Trace
generateTrace(const WorkloadSpec &spec, std::size_t num_instructions)
{
    const ProgramModel prog = ProgramModel::build(spec.program, spec.seed);
    Walker walker(spec, prog);
    return walker.run(num_instructions);
}

} // namespace sipre::synth
