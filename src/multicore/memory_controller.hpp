/**
 * @file
 * The shared half of the Simulator's memory system at every core count:
 * one LLC over one DRAM, fronted by an arbitrated memory controller with
 * a bounded per-core request queue and round-robin grant (the ChampSim
 * shape).
 *
 * The controller is *exactly* transparent when there is no contention:
 * a request arriving at a port whose queue is empty — while no other
 * port has anything queued — is handed straight to the LLC in the same
 * call, and the port's canAccept() mirrors the LLC's own back-pressure.
 * At cores=1 the queue is therefore provably never populated and the
 * port behaves bit-identically to the L2 talking to the LLC directly,
 * which is what the MultiCoreDifferential suite pins down. Only under
 * cross-core contention do requests queue and pay the (at least one
 * cycle) arbitration delay.
 */
#ifndef SIPRE_MULTICORE_MEMORY_CONTROLLER_HPP
#define SIPRE_MULTICORE_MEMORY_CONTROLLER_HPP

#include <deque>
#include <memory>
#include <vector>

#include "memory/cache.hpp"
#include "memory/dram.hpp"
#include "memory/hierarchy.hpp"
#include "util/profiler.hpp"
#include "util/statistics.hpp"

namespace sipre
{

/** Per-port arbitration counters. */
struct PortStats
{
    std::uint64_t bypassed = 0; ///< passed straight to the LLC
    std::uint64_t queued = 0;   ///< had to wait in the port queue
    std::uint64_t grants = 0;   ///< dequeued by the round-robin arbiter
};

/**
 * Owns the shared LLC and DRAM and exposes one MemoryDevice port per
 * core (the lower level of that core's private L2). tick() advances
 * DRAM and LLC, then grants queued port requests round-robin.
 */
class MemoryController
{
  public:
    MemoryController(const HierarchyConfig &hierarchy, std::uint32_t cores);

    MemoryDevice *port(std::uint32_t core) { return ports_[core].get(); }
    Cache &llc() { return *llc_; }
    Dram &dram() { return *dram_; }
    std::uint32_t cores() const
    {
        return static_cast<std::uint32_t>(ports_.size());
    }

    /** Advance DRAM, LLC, and the arbiter one cycle. */
    void tick(Cycle now);

    /**
     * Bulk accounting for cycles the scheduler proved are no-ops for
     * the shared system: the DRAM queue cannot change while the shared
     * side is idle, so the per-cycle occupancy samples the reference
     * loop would have taken are `n` copies of the current depth.
     */
    void
    accountSkippedCycles(std::uint64_t n)
    {
        dram_depth_.add(dram_->pendingRequests(), n);
    }

    /**
     * Earliest cycle the shared system can act: queued port requests
     * mean the arbiter has work next cycle; otherwise the LLC/DRAM
     * claims decide. kNoCycle when fully drained.
     */
    Cycle nextEventCycle(Cycle now) const;

    // --- contention observability ------------------------------------
    const std::vector<PortStats> &portStats() const { return port_stats_; }
    const std::vector<std::uint64_t> &llcCoreHits() const
    {
        return llc_core_hits_;
    }
    const std::vector<std::uint64_t> &llcCoreMisses() const
    {
        return llc_core_misses_;
    }
    /** DRAM queue occupancy, sampled once per executed tick. */
    const Log2Histogram &dramQueueDepth() const { return dram_depth_; }

    /** Zero every shared counter (end of the last core's warmup). */
    void resetStats();

    /**
     * Attach a per-run profile accumulator: tick() charges DRAM and LLC
     * wall-clock to their component slots while the process-wide
     * CycleProfiler is armed. Null detaches. The accumulator must
     * outlive the controller.
     */
    void setProfiler(ProfileAccumulator *acc) { profile_ = acc; }

  private:
    /**
     * One core's window onto the shared LLC. Passive: the controller's
     * tick drains its queue; its own tick is a no-op.
     */
    class Port : public MemoryDevice
    {
      public:
        Port(MemoryController *owner, std::uint32_t core)
            : owner_(owner), core_(core)
        {
        }

        bool canAccept() const override;
        void enqueue(MemRequest req) override;
        void tick(Cycle) override {}
        Cycle
        nextEventCycle(Cycle now) const override
        {
            return queue_.empty() ? kNoCycle : now + 1;
        }

      private:
        friend class MemoryController;
        MemoryController *owner_;
        std::uint32_t core_;
        std::deque<MemRequest> queue_;
    };

    std::unique_ptr<Dram> dram_;
    std::unique_ptr<Cache> llc_;
    std::vector<std::unique_ptr<Port>> ports_;
    std::size_t total_queued_ = 0;
    std::uint32_t rr_next_ = 0; ///< next port the arbiter considers
    std::vector<PortStats> port_stats_;
    std::vector<std::uint64_t> llc_core_hits_;
    std::vector<std::uint64_t> llc_core_misses_;
    Log2Histogram dram_depth_;
    ProfileAccumulator *profile_ = nullptr;
};

} // namespace sipre

#endif // SIPRE_MULTICORE_MEMORY_CONTROLLER_HPP
