#include "backend/backend.hpp"

#include <algorithm>
#include <bit>

#include "util/logging.hpp"

namespace sipre
{

Backend::Backend(const BackendConfig &config, const Trace &trace,
                 MemoryHierarchy &memory, DecodeQueue &decode_queue)
    : config_(config), trace_(trace), memory_(memory),
      decode_queue_(decode_queue)
{
    SIPRE_ASSERT(config.rob_size > 0, "Backend needs rob_size > 0");
    producers_.fill(kNoProducer);

    const std::uint32_t slots = std::bit_ceil(config.rob_size);
    slot_mask_ = slots - 1;
    slot_state_.assign(slots, static_cast<std::uint8_t>(State::kDone));
    slot_deps_.assign(slots, 0);
    slot_trace_index_.assign(slots, 0);
    waiter_head_.assign(slots, kNilWaiter);
    waiter_next_.assign(std::size_t{slots} * 2, kNilWaiter);
    ready_bits_.assign((slots + 63) / 64, 0);
}

Cycle
Backend::latencyFor(InstClass cls) const
{
    switch (cls) {
      case InstClass::kFp:
        return config_.fp_latency;
      case InstClass::kMul:
        return config_.mul_latency;
      case InstClass::kDiv:
        return config_.div_latency;
      case InstClass::kCondBranch:
      case InstClass::kDirectJump:
      case InstClass::kIndirectJump:
      case InstClass::kCall:
      case InstClass::kIndirectCall:
      case InstClass::kReturn:
        return config_.branch_latency;
      default:
        return config_.alu_latency;
    }
}

void
Backend::markDone(std::uint64_t seq, Cycle now)
{
    SIPRE_ASSERT(inRob(seq), "completion for an instruction not in the ROB");
    const std::uint32_t slot = slotOf(seq);
    slot_state_[slot] = static_cast<std::uint8_t>(State::kDone);

    // Wake the consumers registered against this producer. A consumer
    // is always younger than its producer, so it is still in the ROB
    // (its nodes are valid) when the producer completes. An entry whose
    // outstanding-producer count reaches zero is necessarily still
    // kWaiting — it could never have issued with a dependence pending.
    std::uint32_t node = waiter_head_[slot];
    waiter_head_[slot] = kNilWaiter;
    while (node != kNilWaiter) {
        const std::uint32_t next = waiter_next_[node];
        waiter_next_[node] = kNilWaiter;
        const std::uint32_t consumer = node >> 1;
        if (--slot_deps_[consumer] == 0) {
            setReady(consumer);
            ++ready_count_;
        }
        node = next;
    }

    const std::uint64_t trace_index = slot_trace_index_[slot];
    if (trace_[trace_index].isBranch() && onBranchExecuted)
        onBranchExecuted(trace_index, now);
}

void
Backend::tick(Cycle now)
{
    complete(now);
    retire(now);
    issue(now);
    dispatch(now);

    if (robEmpty())
        ++stats_.empty_rob_cycles;
    if (robFull())
        ++stats_.rob_full_cycles;
}

Cycle
Backend::nextEventCycle(Cycle now) const
{
    // Retirement: a completed head retires next cycle.
    if (!robEmpty() &&
        slot_state_[slotOf(head_seq_)] ==
            static_cast<std::uint8_t>(State::kDone))
        return now + 1;

    // Issue: a ready instruction inside the scheduler window is
    // (re)considered every cycle. The flag is maintained by
    // issue()/dispatch() so no window walk is needed.
    if (ready_waiting_)
        return now + 1;

    // Fixed-latency completions.
    if (!exec_done_.empty() && exec_done_.top().ready <= now + 1)
        return now + 1;

    // Dispatch: blocked on the decode head's ready_at (or, when the ROB
    // is full, on a retirement event reported above / a memory fill
    // reported by the hierarchy).
    const bool can_dispatch = !decode_queue_.empty() && !robFull();
    if (can_dispatch && decode_queue_.front().ready_at <= now + 1)
        return now + 1;

    Cycle next = kNoCycle;
    if (!exec_done_.empty())
        next = std::max(now + 1, exec_done_.top().ready);
    if (can_dispatch) {
        next = std::min(next,
                        std::max(now + 1, decode_queue_.front().ready_at));
    }
    return next;
}

void
Backend::complete(Cycle now)
{
    // Loads returning from the hierarchy.
    auto &done = memory_.dataCompleted();
    for (const MemRequest &req : done) {
        const std::uint64_t *seq = inflight_loads_.find(req.id);
        if (seq == nullptr)
            continue;
        markDone(*seq, now);
        inflight_loads_.erase(req.id);
    }
    done.clear();

    // Fixed-latency operations finishing this cycle.
    while (!exec_done_.empty() && exec_done_.top().ready <= now) {
        const std::uint64_t seq = exec_done_.top().seq;
        exec_done_.pop();
        markDone(seq, now);
    }
}

void
Backend::retire(Cycle now)
{
    (void)now;
    std::uint32_t budget = config_.retire_width;
    while (budget > 0 && !robEmpty()) {
        const std::uint32_t slot = slotOf(head_seq_);
        if (slot_state_[slot] != static_cast<std::uint8_t>(State::kDone))
            break;
        if (trace_[slot_trace_index_[slot]].isSwPrefetch())
            ++stats_.retired_sw_prefetches;
        ++head_seq_;
        ++stats_.retired;
        ++retired_total_;
        --budget;
    }
}

void
Backend::issue(Cycle now)
{
    // Nothing in the whole ROB is ready: there is no issue candidate
    // and no port leftover, so skip the window outright.
    if (ready_count_ == 0) {
        ready_waiting_ = config_.issue_width == 0;
        return;
    }

    std::uint32_t budget = config_.issue_width;
    std::uint32_t load_ports = config_.load_ports;
    std::uint32_t store_ports = config_.store_ports;
    bool leftover = false;

    const std::uint32_t head_slot = slotOf(head_seq_);

    // Issue the ready entry in `slot`, or leave its bit set when its
    // port or the L1-D queue is blocked.
    auto issueSlot = [&](std::uint32_t slot) {
        const TraceInstruction &inst = trace_[slot_trace_index_[slot]];
        const std::uint64_t seq =
            head_seq_ + ((slot - head_slot) & slot_mask_);
        if (inst.isLoad()) {
            if (load_ports == 0 || !memory_.dataCanAccept()) {
                leftover = true; // ready but port/queue-blocked
                return;
            }
            const ReqId id =
                memory_.issueLoad(inst.addr, now, inst.pc);
            inflight_loads_.insert(id, seq);
            slot_state_[slot] =
                static_cast<std::uint8_t>(State::kWaitingMem);
            --load_ports;
            ++stats_.loads_issued;
        } else if (inst.isStore()) {
            if (store_ports == 0 || !memory_.dataCanAccept()) {
                leftover = true; // ready but port/queue-blocked
                return;
            }
            memory_.issueStore(inst.addr, now);
            slot_state_[slot] = static_cast<std::uint8_t>(State::kExecuting);
            exec_done_.push(ExecEvent{now + config_.alu_latency, seq});
            --store_ports;
            ++stats_.stores_issued;
        } else {
            slot_state_[slot] = static_cast<std::uint8_t>(State::kExecuting);
            exec_done_.push(ExecEvent{now + latencyFor(inst.cls), seq});
        }
        ready_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
        --ready_count_;
        --budget;
    };

    // Visit the set bits of slots [lo, hi) in ascending order.
    auto walk = [&](std::uint32_t lo, std::uint32_t hi) {
        if (lo >= hi)
            return;
        const std::uint32_t last = (hi - 1) >> 6;
        for (std::uint32_t w = lo >> 6; w <= last && budget > 0; ++w) {
            std::uint64_t bits = ready_bits_[w];
            if (w == lo >> 6)
                bits &= ~std::uint64_t{0} << (lo & 63);
            if (w == last)
                bits &= ~std::uint64_t{0} >> (63 - ((hi - 1) & 63));
            while (bits != 0 && budget > 0) {
                issueSlot(w * 64 + static_cast<std::uint32_t>(
                                       std::countr_zero(bits)));
                bits &= bits - 1;
            }
        }
    };

    // The window is the oldest min(size, sched_window) entries: slots
    // [head_slot, head_slot + window), wrapping the slot space at most
    // once because the window never exceeds the slot count.
    const std::uint32_t slots = slot_mask_ + 1;
    const std::uint32_t window_end =
        head_slot + static_cast<std::uint32_t>(std::min<std::size_t>(
                        robOccupancy(), config_.sched_window));
    walk(head_slot, std::min(window_end, slots));
    if (window_end > slots)
        walk(0, window_end - slots);

    // Budget exhaustion may leave further ready entries unvisited;
    // conservatively keep the backend ticking in that case.
    ready_waiting_ = leftover || budget == 0;
}

void
Backend::dispatch(Cycle now)
{
    std::uint32_t budget = config_.dispatch_width;
    while (budget > 0 && !robFull() && !decode_queue_.empty() &&
           decode_queue_.front().ready_at <= now) {
        const DecodedUop uop = decode_queue_.pop();
        const TraceInstruction &inst = trace_[uop.trace_index];

        const std::uint64_t seq = next_seq_++;
        const std::uint32_t slot = slotOf(seq);
        slot_state_[slot] = static_cast<std::uint8_t>(State::kWaiting);
        slot_trace_index_[slot] = uop.trace_index;
        waiter_head_[slot] = kNilWaiter;

        // Register a dependence per source operand whose producer is
        // still in the ROB and not yet Done; anything else (no
        // producer, retired producer, completed producer) is ready now,
        // matching the original sourcesReady() walk.
        std::uint8_t deps = 0;
        for (std::size_t s = 0; s < inst.src.size(); ++s) {
            if (inst.src[s] == kNoReg)
                continue;
            const std::uint64_t producer = producers_[inst.src[s]];
            if (!inRob(producer))
                continue;
            const std::uint32_t pslot = slotOf(producer);
            if (slot_state_[pslot] == static_cast<std::uint8_t>(State::kDone))
                continue;
            ++deps;
            const std::uint32_t node =
                slot * 2 + static_cast<std::uint32_t>(s);
            waiter_next_[node] = waiter_head_[pslot];
            waiter_head_[pslot] = node;
        }
        slot_deps_[slot] = deps;
        if (deps == 0) {
            setReady(slot);
            ++ready_count_;
        }
        if (inst.dst != kNoReg)
            producers_[inst.dst] = seq;

        ++stats_.dispatched;
        --budget;

        // A newly dispatched entry with no outstanding producers can
        // issue next cycle; note it for the O(1) nextEventCycle().
        if (!ready_waiting_ && robOccupancy() <= config_.sched_window &&
            deps == 0)
            ready_waiting_ = true;

        if (inst.isBranch() && onBranchDecoded)
            onBranchDecoded(uop.trace_index, now);
    }
}

} // namespace sipre
