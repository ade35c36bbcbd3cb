#include "asmdb/cfg.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace sipre::asmdb
{

Cfg
Cfg::build(const Trace &trace,
           const std::unordered_map<Addr, std::uint64_t> &line_misses)
{
    Cfg cfg;
    if (trace.empty())
        return cfg;
    const std::vector<StaticInstruction> &statics = trace.statics();
    const std::size_t n = trace.size();

    // 1. One pass over the executions: each static entry's first
    //    execution, the entries that follow a branch, and the distinct
    //    targets of taken branches (remembering each branch's last one
    //    keeps repeats out).
    constexpr std::size_t kNever = ~std::size_t{0};
    std::vector<std::size_t> first(statics.size(), kNever);
    std::vector<char> after_branch(statics.size(), 0);
    std::vector<char> has_target(statics.size(), 0);
    std::vector<Addr> last_target(statics.size(), 0);
    std::vector<Addr> targets;
    for (std::size_t i = 0; i < n; ++i) {
        const Trace::StaticIndex s = trace.staticIndex(i);
        if (first[s] == kNever)
            first[s] = i;
        if (!statics[s].isBranch())
            continue;
        const Addr target = trace.addr(i);
        if (trace.taken(i) && (!has_target[s] || last_target[s] != target)) {
            targets.push_back(target);
            has_target[s] = 1;
            last_target[s] = target;
        }
        if (i + 1 < n)
            after_branch[trace.staticIndex(i + 1)] = 1;
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());

    // 2. The executed pcs in order, each with the size its first
    //    execution had, and the leaders among them: the first
    //    instruction, every taken target, and whatever follows a
    //    branch.
    std::vector<Trace::StaticIndex> order;
    order.reserve(statics.size());
    for (std::size_t s = 0; s < statics.size(); ++s) {
        if (first[s] != kNever)
            order.push_back(static_cast<Trace::StaticIndex>(s));
    }
    std::sort(order.begin(), order.end(),
              [&](Trace::StaticIndex a, Trace::StaticIndex b) {
                  return statics[a].pc != statics[b].pc
                             ? statics[a].pc < statics[b].pc
                             : first[a] < first[b];
              });
    struct StaticPc
    {
        Addr pc;
        std::uint8_t size;
        bool leader;
    };
    std::vector<StaticPc> pcs;      // sorted, distinct
    std::vector<std::uint32_t> pos(statics.size(), 0); // entry -> pcs
    for (const Trace::StaticIndex s : order) {
        if (pcs.empty() || pcs.back().pc != statics[s].pc)
            pcs.push_back(StaticPc{statics[s].pc, statics[s].size, false});
        pos[s] = static_cast<std::uint32_t>(pcs.size() - 1);
        pcs.back().leader |= after_branch[s] != 0;
    }
    pcs[pos[trace.staticIndex(0)]].leader = true;
    {
        auto it = pcs.begin();
        for (const Addr target : targets) {
            it = std::lower_bound(it, pcs.end(), target,
                                  [](const StaticPc &p, Addr a) {
                                      return p.pc < a;
                                  });
            if (it == pcs.end())
                break;
            if (it->pc == target)
                it->leader = true;
        }
    }

    // 3. Form blocks: split at leaders, after branches, and at gaps;
    //    map every pc to its block.
    std::vector<std::uint32_t> block_of_pc(pcs.size());
    cfg.by_pc_.reserve(pcs.size());
    for (std::size_t k = 0; k < pcs.size(); ++k) {
        const bool new_block = k == 0 || pcs[k].leader ||
                               pcs[k].pc != pcs[k - 1].pc + pcs[k - 1].size;
        if (new_block) {
            CfgBlock block;
            block.id = static_cast<std::uint32_t>(cfg.blocks_.size());
            block.start_pc = pcs[k].pc;
            cfg.by_start_.emplace(block.start_pc, block.id);
            cfg.blocks_.push_back(std::move(block));
        }
        CfgBlock &block = cfg.blocks_.back();
        block.end_pc = pcs[k].pc;
        ++block.num_instrs;
        block_of_pc[k] = block.id;
        cfg.by_pc_.emplace(pcs[k].pc, block.id);
    }

    // Per static entry: its block, whether it starts that block, and
    // whether control leaves the block after it (a branch, or the
    // block's last instruction).
    std::vector<std::uint32_t> block_of(statics.size(), kNoBlock);
    std::vector<char> starts(statics.size(), 0);
    std::vector<char> leaves(statics.size(), 0);
    for (const Trace::StaticIndex s : order) {
        const CfgBlock &block = cfg.blocks_[block_of_pc[pos[s]]];
        block_of[s] = block.id;
        starts[s] = statics[s].pc == block.start_pc;
        leaves[s] = statics[s].isBranch() || statics[s].pc == block.end_pc;
    }

    // 4. Execution and edge counts from the dynamic trace. A block is
    //    entered whenever control reaches its leader after the previous
    //    block ended (branch, or fallthrough past a block boundary).
    //    Each block remembers its last successor's counter, so a loop
    //    or a straight path counts without hashing.
    std::unordered_map<std::uint64_t, std::uint64_t> edge_counts;
    std::vector<std::pair<std::uint32_t, std::uint64_t *>> last_edge(
        cfg.blocks_.size(), {kNoBlock, nullptr});
    Trace::StaticIndex prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Trace::StaticIndex s = trace.staticIndex(i);
        if (starts[s] && (i == 0 || leaves[prev])) {
            const std::uint32_t b = block_of[s];
            ++cfg.blocks_[b].exec_count;
            if (i > 0) {
                auto &[dst, count] = last_edge[block_of[prev]];
                if (dst != b) {
                    const std::uint64_t key =
                        (std::uint64_t{block_of[prev]} << 32) | b;
                    dst = b;
                    count = &edge_counts[key];
                }
                ++*count;
            }
        }
        prev = s;
    }

    for (const auto &[key, count] : edge_counts) {
        const auto src = static_cast<std::uint32_t>(key >> 32);
        const auto dst = static_cast<std::uint32_t>(key & 0xffffffffu);
        cfg.blocks_[src].succs.emplace_back(dst, count);
        cfg.blocks_[dst].preds.emplace_back(src, count);
    }
    for (auto &block : cfg.blocks_) {
        std::sort(block.succs.begin(), block.succs.end());
        std::sort(block.preds.begin(), block.preds.end());
    }

    // 5. Call-bypass edges: for each call continuation, record the
    //    call-site block and the callee's average dynamic length, so
    //    the planner can traverse backward over calls.
    {
        struct Frame
        {
            std::uint32_t site_block;
            Addr continuation_pc;
            std::uint64_t start_index;
        };
        std::vector<Frame> stack;
        struct Agg
        {
            std::uint32_t site = kNoBlock;
            std::uint64_t total_len = 0;
            std::uint64_t count = 0;
        };
        std::unordered_map<std::uint32_t, Agg> bypass; // cont block -> agg
        for (std::size_t i = 0; i < n; ++i) {
            const Trace::StaticIndex s = trace.staticIndex(i);
            const StaticInstruction &inst = statics[s];
            const bool is_call = inst.cls == InstClass::kCall ||
                                 inst.cls == InstClass::kIndirectCall;
            if (is_call && stack.size() < 64) {
                stack.push_back(Frame{block_of[s], inst.nextPc(), i});
            } else if (inst.cls == InstClass::kReturn && !stack.empty()) {
                const Frame frame = stack.back();
                stack.pop_back();
                if (trace.addr(i) == frame.continuation_pc) {
                    auto cont = cfg.by_start_.find(frame.continuation_pc);
                    if (cont != cfg.by_start_.end()) {
                        Agg &agg = bypass[cont->second];
                        agg.site = frame.site_block;
                        agg.total_len += i - frame.start_index;
                        agg.count += 1;
                    }
                }
            }
        }
        for (const auto &[cont, agg] : bypass) {
            cfg.blocks_[cont].bypass_pred = agg.site;
            cfg.blocks_[cont].bypass_len = static_cast<std::uint32_t>(
                agg.total_len / std::max<std::uint64_t>(1, agg.count));
        }
    }

    // 6. Attribute line misses to representative blocks.
    for (const auto &[line, misses] : line_misses) {
        // First profiled instruction within the line.
        const auto it = std::lower_bound(
            pcs.begin(), pcs.end(), line,
            [](const StaticPc &p, Addr a) { return p.pc < a; });
        if (it == pcs.end() || it->pc >= line + 64)
            continue; // miss on a line with no profiled instruction
        const std::uint32_t b = block_of_pc[it - pcs.begin()];
        cfg.blocks_[b].misses += misses;
        cfg.by_line_.emplace(line, b);
    }

    return cfg;
}

std::uint32_t
Cfg::blockContaining(Addr pc) const
{
    auto it = by_pc_.find(pc);
    return it == by_pc_.end() ? kNoBlock : it->second;
}

std::uint32_t
Cfg::blockAt(Addr pc) const
{
    auto it = by_start_.find(pc);
    return it == by_start_.end() ? kNoBlock : it->second;
}

std::uint32_t
Cfg::blockForLine(Addr line_addr) const
{
    auto it = by_line_.find(line_addr);
    return it == by_line_.end() ? kNoBlock : it->second;
}

} // namespace sipre::asmdb
