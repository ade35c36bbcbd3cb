/**
 * @file
 * One core's memory hierarchy: L1-I and L1-D over a unified L2, with an
 * optional hardware instruction prefetcher at the L1-I, over the LLC
 * and DRAM a MemoryController shares among the cores. This is the
 * single entry point the CPU model talks to.
 */
#ifndef SIPRE_MEMORY_HIERARCHY_HPP
#define SIPRE_MEMORY_HIERARCHY_HPP

#include <memory>
#include <vector>

#include "memory/cache.hpp"
#include "memory/dram.hpp"
#include "memory/dprefetcher.hpp"
#include "memory/iprefetcher.hpp"
#include "util/profiler.hpp"

namespace sipre
{

/** Configuration of the whole hierarchy (defaults per Table I). */
struct HierarchyConfig
{
    CacheConfig l1i{.name = "L1I",
                    .size_bytes = 32 * 1024,
                    .ways = 8,
                    .latency = 4,
                    .mshrs = 32,
                    .queue_size = 64,
                    .tags_per_cycle = 2,
                    .level_tag = ServedBy::kL1};
    CacheConfig l1d{.name = "L1D",
                    .size_bytes = 48 * 1024,
                    .ways = 12,
                    .latency = 5,
                    .mshrs = 16,
                    .queue_size = 64,
                    .tags_per_cycle = 2,
                    .level_tag = ServedBy::kL1};
    CacheConfig l2{.name = "L2",
                   .size_bytes = 512 * 1024,
                   .ways = 8,
                   .latency = 10,
                   .mshrs = 32,
                   .queue_size = 64,
                   .tags_per_cycle = 2,
                   .level_tag = ServedBy::kL2};
    CacheConfig llc{.name = "LLC",
                    .size_bytes = 2 * 1024 * 1024,
                    .ways = 16,
                    .latency = 20,
                    .mshrs = 64,
                    .queue_size = 64,
                    .tags_per_cycle = 2,
                    .level_tag = ServedBy::kLlc};
    DramConfig dram{};
    IPrefetcherKind l1i_prefetcher = IPrefetcherKind::kNone;
    DPrefetcherKind l1d_prefetcher = DPrefetcherKind::kNone;
};

/**
 * Owns and wires the core's private cache levels; exposes an
 * instruction port (I-fetch and I-prefetch into the L1-I) and a data
 * port (loads/stores into the L1-D). Completions are delivered into
 * per-port vectors that the CPU drains once per cycle.
 */
class MemoryHierarchy
{
  public:
    /**
     * Core-private slice over a shared LLC and DRAM: this instance owns
     * only the L1s and the L2; the L2's lower level is `shared_lower` (a
     * memory-controller port) and `shared_llc`/`shared_dram` are the
     * shared devices behind it, exposed read-only through llc()/dram()
     * so result collection and llcAccessLatency() work unchanged. All
     * requests issued through this slice are tagged with `core_id`.
     * The shared devices are ticked by their owner, not by tick().
     */
    MemoryHierarchy(const HierarchyConfig &config,
                    MemoryDevice *shared_lower, Cache *shared_llc,
                    Dram *shared_dram, std::uint8_t core_id);

    // --- instruction port ------------------------------------------------
    bool ifetchCanAccept() const { return l1i_->canAccept(); }

    /** Issue a demand instruction fetch for the line containing addr. */
    ReqId issueIFetch(Addr addr, Cycle now);

    /**
     * Issue a (software or hardware) prefetch into the L1-I. pf_origin
     * 0 is the demand/software path; hardware components are tagged
     * 1 + their index so fill/evict outcomes route back to them.
     */
    ReqId issueIPrefetch(Addr addr, Cycle now, std::uint8_t pf_origin = 0);

    /** Completed I-fetch requests; drain and clear() each cycle. */
    std::vector<MemRequest> &ifetchCompleted() { return ifetch_done_; }

    // --- data port ---------------------------------------------------------
    bool dataCanAccept() const { return l1d_->canAccept(); }
    ReqId issueLoad(Addr addr, Cycle now, Addr pc = 0);
    ReqId issueStore(Addr addr, Cycle now);

    /** Issue a prefetch into the L1-D (data prefetcher path). */
    ReqId issueDPrefetch(Addr addr, Cycle now);

    /** Completed load requests; drain and clear() each cycle. */
    std::vector<MemRequest> &dataCompleted() { return data_done_; }

    /** Advance the slice (L2, L1-D, L1-I, prefetchers) one cycle. */
    void tick(Cycle now);

    /**
     * Earliest future cycle at which any device in the hierarchy can
     * make progress (see MemoryDevice::nextEventCycle); kNoCycle when
     * everything — devices, completion ports, prefetcher candidate
     * queues — is drained.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Attach a hardware instruction prefetcher component to the L1-I.
     * Components observe every demand L1-I access and are drained once
     * per tick (bounded to kIssuePerTick candidates per component per
     * cycle, in installation order). Installing the first component
     * hooks the L1-I access and prefetch-outcome callbacks; origin tags
     * are 1 + the component's index.
     */
    void installIPrefetcher(std::unique_ptr<InstrPrefetcher> pf);

    /** Installed L1-I prefetcher components (may be empty). */
    std::vector<std::unique_ptr<InstrPrefetcher>> &iprefetchers()
    {
        return iprefetchers_;
    }
    const std::vector<std::unique_ptr<InstrPrefetcher>> &
    iprefetchers() const
    {
        return iprefetchers_;
    }

    /** Hardware prefetch issue bandwidth, per component per cycle. */
    static constexpr std::size_t kIssuePerTick = 8;

    // --- introspection ------------------------------------------------------
    Cache &l1i() { return *l1i_; }
    Cache &l1d() { return *l1d_; }
    Cache &l2() { return *l2_; }
    Cache &llc() { return *llc_; }
    Dram &dram() { return *dram_; }
    const Cache &l1i() const { return *l1i_; }

    /** Round-trip latency of an LLC hit as seen from the core. */
    Cycle llcAccessLatency() const;

    /**
     * Attach a per-run profile accumulator: tick() attributes each
     * device's wall-clock to its component slot while the process-wide
     * CycleProfiler is armed. Null detaches. The accumulator must
     * outlive the hierarchy.
     */
    void setProfiler(ProfileAccumulator *acc) { profile_ = acc; }

  private:
    Addr lineOf(Addr addr) const { return addr & ~Addr{63}; }

    /** The shared LLC and DRAM (owned by the memory controller). */
    Cache *llc_ = nullptr;
    Dram *dram_ = nullptr;
    std::uint8_t core_id_ = 0;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Cache> l1i_;
    std::unique_ptr<Cache> l1d_;
    std::vector<std::unique_ptr<InstrPrefetcher>> iprefetchers_;
    std::unique_ptr<DataPrefetcher> dprefetcher_;
    std::vector<Addr> pf_scratch_; ///< per-tick drain buffer (reused)
    std::vector<MemRequest> ifetch_done_;
    std::vector<MemRequest> data_done_;
    ProfileAccumulator *profile_ = nullptr;
    ReqId next_id_ = 1;
    Cycle now_ = 0;
};

} // namespace sipre

#endif // SIPRE_MEMORY_HIERARCHY_HPP
