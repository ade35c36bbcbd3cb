/**
 * @file
 * A simplified out-of-order back-end: dispatch from the decode queue
 * into a ROB, dependency-tracked issue with per-class latencies, loads
 * and stores through the L1-D, in-order retire, and branch-resolution
 * notifications back to the front-end.
 *
 * The back-end's job in this study is to provide realistic consumption
 * pressure and resolution timing for the front-end characterization;
 * it is deliberately simpler than a full scheduler model.
 *
 * Hot-path layout: per-entry scheduling state lives in flat
 * structure-of-arrays mirrors indexed by `seq & slot_mask_`, a
 * power-of-two slot space at least as large as the ROB, so live
 * sequence numbers never collide. Dispatch hands out sequence numbers
 * contiguously and retirement is in order, so the ROB is nothing but
 * the range [head_seq_, next_seq_): membership is one unsigned compare,
 * and retire reads the head's trace index from its slot.
 *
 * Operand readiness is pushed, not polled. Each entry carries an
 * outstanding-producer count that the producer's completion decrements
 * through a pooled intrusive waiter list. A ready bitmap, one bit per
 * slot, holds exactly the kWaiting entries whose count is zero:
 * dispatch sets the bit of an entry born ready, the completion that
 * drops a count to zero sets it, and issue clears it. Issue must offer
 * exactly those entries among the oldest min(size, sched_window),
 * oldest first. That window is a circular slot range starting at the
 * head's slot; it wraps the slot space at most once, and slot order
 * inside it is sequence order. Walking its set bits with
 * count-trailing-zeros therefore visits every candidate in age order,
 * and one blocked on its port or the L1-D queue keeps its bit for the
 * next cycle. A busy cycle costs per ready instruction, not per window
 * slot.
 */
#ifndef SIPRE_BACKEND_BACKEND_HPP
#define SIPRE_BACKEND_BACKEND_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "frontend/decode_queue.hpp"
#include "memory/hierarchy.hpp"
#include "trace/trace.hpp"
#include "util/flat_map.hpp"

namespace sipre
{

/** Back-end configuration (defaults are Sunny-Cove-like, per Table I). */
struct BackendConfig
{
    std::uint32_t rob_size = 352;
    std::uint32_t dispatch_width = 6;
    std::uint32_t issue_width = 6;
    std::uint32_t retire_width = 6;
    std::uint32_t load_ports = 2;
    std::uint32_t store_ports = 1;
    std::uint32_t sched_window = 128; ///< issue-scan depth from ROB head

    Cycle alu_latency = 1;
    Cycle fp_latency = 4;
    Cycle mul_latency = 3;
    Cycle div_latency = 18;
    Cycle branch_latency = 1;
};

/** Back-end statistics. */
struct BackendStats
{
    std::uint64_t retired = 0;
    std::uint64_t retired_sw_prefetches = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t loads_issued = 0;
    std::uint64_t stores_issued = 0;
    std::uint64_t rob_full_cycles = 0;
    std::uint64_t empty_rob_cycles = 0; ///< starved by the front-end
};

/**
 * The out-of-order core back-end. See file comment.
 */
class Backend
{
  public:
    Backend(const BackendConfig &config, const Trace &trace,
            MemoryHierarchy &memory, DecodeQueue &decode_queue);

    /** Advance one cycle. */
    void tick(Cycle now);

    /**
     * Earliest future cycle at which the back-end can make progress
     * (retire, complete, issue, or dispatch); kNoCycle when nothing is
     * pending locally. A tick at any earlier cycle must be a no-op
     * apart from the per-cycle occupancy counters, which the simulator
     * accounts for in bulk via accountSkippedCycles().
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Account the per-cycle occupancy counters for `count` skipped
     * cycles during which the back-end provably did nothing.
     */
    void
    accountSkippedCycles(Cycle count)
    {
        if (robEmpty())
            stats_.empty_rob_cycles += count;
        if (robFull())
            stats_.rob_full_cycles += count;
    }

    /** Instructions retired since construction (never reset). */
    std::uint64_t retired() const { return retired_total_; }

    const BackendStats &stats() const { return stats_; }

    /** Zero the event counters (end-of-warmup). State is kept. */
    void resetStats() { stats_ = BackendStats{}; }

    /** ROB occupancy. */
    std::size_t robOccupancy() const { return next_seq_ - head_seq_; }

    /** Called when a branch enters the ROB (decode complete). */
    std::function<void(std::uint64_t trace_index, Cycle now)> onBranchDecoded;

    /** Called when a branch finishes execution (resolution). */
    std::function<void(std::uint64_t trace_index, Cycle now)>
        onBranchExecuted;

  private:
    enum class State : std::uint8_t {
        kWaiting,   ///< in ROB, operands possibly outstanding
        kExecuting, ///< latency counting down
        kWaitingMem,///< load in flight in the hierarchy
        kDone
    };

    struct ExecEvent
    {
        Cycle ready;
        std::uint64_t seq;

        bool
        operator>(const ExecEvent &other) const
        {
            return ready != other.ready ? ready > other.ready
                                        : seq > other.seq;
        }
    };

    static constexpr std::uint64_t kNoProducer = ~std::uint64_t{0};
    static constexpr std::uint32_t kNilWaiter = ~std::uint32_t{0};

    Cycle latencyFor(InstClass cls) const;
    std::uint32_t slotOf(std::uint64_t seq) const
    {
        return static_cast<std::uint32_t>(seq) & slot_mask_;
    }
    /** Is seq in [head_seq_, next_seq_)? Never true for kNoProducer. */
    bool
    inRob(std::uint64_t seq) const
    {
        return seq - head_seq_ < next_seq_ - head_seq_;
    }
    bool robEmpty() const { return next_seq_ == head_seq_; }
    bool robFull() const { return robOccupancy() == config_.rob_size; }
    void
    setReady(std::uint32_t slot)
    {
        ready_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }
    void markDone(std::uint64_t seq, Cycle now);
    void dispatch(Cycle now);
    void issue(Cycle now);
    void complete(Cycle now);
    void retire(Cycle now);

    BackendConfig config_;
    const Trace &trace_;
    MemoryHierarchy &memory_;
    DecodeQueue &decode_queue_;

    /** The ROB: in-flight sequence numbers [head_seq_, next_seq_). */
    std::uint64_t head_seq_ = 0;
    std::uint64_t next_seq_ = 0;

    // --- SoA mirrors of per-entry scheduling state, indexed by
    // seq & slot_mask_ (see file comment). slot_deps_ counts producers
    // that were in the ROB and not yet Done when the consumer
    // dispatched; it reaches zero exactly when the original
    // sourcesReady() scan would first report true.
    std::uint32_t slot_mask_ = 0;
    std::vector<std::uint8_t> slot_state_;
    std::vector<std::uint8_t> slot_deps_;
    std::vector<std::uint64_t> slot_trace_index_;
    /**
     * Pooled intrusive waiter lists: node id `slot * 2 + src_operand`
     * lives in waiter_next_; waiter_head_[p] chains the consumers of
     * producer slot p. No allocation after construction — a consumer
     * occupies at most its own two nodes.
     */
    std::vector<std::uint32_t> waiter_head_;
    std::vector<std::uint32_t> waiter_next_;

    /**
     * Bit `slot` is set exactly when that slot is kWaiting with zero
     * outstanding producers; ready_count_ is its population count.
     */
    std::vector<std::uint64_t> ready_bits_;
    std::size_t ready_count_ = 0;

    /**
     * True when some kWaiting entry inside the scheduler window may
     * have ready sources — maintained as a byproduct of issue() (port
     * or L1-D backpressure leftovers) and dispatch() (newly dispatched
     * entries with no outstanding producers), so nextEventCycle() can
     * answer in O(1) instead of rescanning the window. Conservative
     * true is always safe; it only costs a no-op tick.
     */
    bool ready_waiting_ = true;
    std::uint64_t retired_total_ = 0;
    std::priority_queue<ExecEvent, std::vector<ExecEvent>,
                        std::greater<ExecEvent>>
        exec_done_;

    /** Architectural register -> sequence number of the last producer. */
    std::array<std::uint64_t, 256> producers_;

    /** Outstanding load request id -> producing sequence number. */
    FlatMap<std::uint64_t> inflight_loads_;

    BackendStats stats_;
};

} // namespace sipre

#endif // SIPRE_BACKEND_BACKEND_HPP
