#include "asmdb/cfg.hpp"

#include <algorithm>
#include <map>
#include <unordered_set>

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

    // 1. Collect the static instruction set and block leaders.
    std::map<Addr, std::uint8_t> static_instrs; // pc -> size (sorted)
    std::unordered_set<Addr> leaders;
    leaders.insert(trace[0].pc);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceInstruction &inst = trace[i];
        static_instrs.emplace(inst.pc, inst.size);
        if (inst.isBranch()) {
            if (inst.taken)
                leaders.insert(inst.addr);
            if (i + 1 < trace.size())
                leaders.insert(trace[i + 1].pc);
        }
    }

    // 2. Form blocks: split at leaders, after branches, and at gaps.
    auto flush_block = [&cfg](Addr start, Addr end,
                              std::uint32_t n_instrs) {
        CfgBlock block;
        block.id = static_cast<std::uint32_t>(cfg.blocks_.size());
        block.start_pc = start;
        block.end_pc = end;
        block.num_instrs = n_instrs;
        cfg.by_start_.emplace(start, block.id);
        cfg.blocks_.push_back(std::move(block));
    };

    Addr block_start = 0;
    Addr prev_pc = 0;
    Addr expected_next = 0;
    std::uint32_t count = 0;
    for (const auto &[pc, size] : static_instrs) {
        const bool new_block =
            count == 0 || leaders.count(pc) != 0 || pc != expected_next;
        if (new_block && count > 0) {
            flush_block(block_start, prev_pc, count);
            count = 0;
        }
        if (count == 0)
            block_start = pc;
        ++count;
        prev_pc = pc;
        expected_next = pc + size;
    }
    if (count > 0)
        flush_block(block_start, prev_pc, count);

    // 3. Map every instruction pc to its block.
    {
        auto it = static_instrs.begin();
        for (auto &block : cfg.blocks_) {
            while (it != static_instrs.end() && it->first <= block.end_pc) {
                cfg.by_pc_.emplace(it->first, block.id);
                ++it;
            }
        }
    }

    // 4. Execution and edge counts from the dynamic trace. A block is
    //    entered whenever control reaches its leader after the previous
    //    block ended (branch, or fallthrough past a block boundary).
    std::uint32_t prev_block = kNoBlock;
    std::unordered_map<std::uint64_t, std::uint64_t> edge_counts;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceInstruction &inst = trace[i];
        const std::uint32_t b = cfg.by_pc_.at(inst.pc);
        const bool block_entry =
            inst.pc == cfg.blocks_[b].start_pc &&
            (i == 0 || trace[i - 1].isBranch() ||
             trace[i - 1].pc == cfg.blocks_[prev_block].end_pc);
        if (block_entry) {
            ++cfg.blocks_[b].exec_count;
            if (i > 0) {
                const std::uint64_t key =
                    (std::uint64_t{prev_block} << 32) | b;
                ++edge_counts[key];
            }
        }
        prev_block = b;
    }

    for (const auto &[key, n] : edge_counts) {
        const auto src = static_cast<std::uint32_t>(key >> 32);
        const auto dst = static_cast<std::uint32_t>(key & 0xffffffffu);
        cfg.blocks_[src].succs.emplace_back(dst, n);
        cfg.blocks_[dst].preds.emplace_back(src, n);
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
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const TraceInstruction &inst = trace[i];
            const bool is_call = inst.cls == InstClass::kCall ||
                                 inst.cls == InstClass::kIndirectCall;
            if (is_call && stack.size() < 64) {
                stack.push_back(Frame{cfg.by_pc_.at(inst.pc),
                                      inst.nextPc(), i});
            } else if (inst.cls == InstClass::kReturn && !stack.empty()) {
                const Frame frame = stack.back();
                stack.pop_back();
                if (inst.addr == frame.continuation_pc) {
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
    for (const auto &[line, n] : line_misses) {
        // First profiled instruction within the line.
        auto it = static_instrs.lower_bound(line);
        if (it == static_instrs.end() || it->first >= line + 64)
            continue; // miss on a line with no profiled instruction
        const std::uint32_t b = cfg.by_pc_.at(it->first);
        cfg.blocks_[b].misses += n;
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
