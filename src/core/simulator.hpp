/**
 * @file
 * The Simulator: the one simulation driver. It builds one Core per
 * trace — front-end, back-end, decode queue, a private L1-I/L1-D/L2
 * slice and an optional metadata preloader — over one MemoryController
 * that owns the shared LLC and DRAM, and runs every core to retirement.
 * The same loop runs one core or N: at one core the controller is a
 * pass-through (nothing ever queues at its port), so a solo run is
 * exactly the classic single-core machine.
 *
 * Two loops tick the cores. The reference loop ticks every component
 * every cycle; the skip loop ticks a component only when its cached
 * claim (MemoryDevice::nextEventCycle and friends) is due or an input
 * arrived, and jumps the clock to the minimum claim when every
 * component is idle. The SkipDifferential and MultiCoreDifferential
 * suites hold the two bit-identical.
 */
#ifndef SIPRE_CORE_SIMULATOR_HPP
#define SIPRE_CORE_SIMULATOR_HPP

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/backend.hpp"
#include "core/config.hpp"
#include "core/metadata_preload.hpp"
#include "core/sim_result.hpp"
#include "frontend/frontend.hpp"
#include "memory/hierarchy.hpp"
#include "multicore/memory_controller.hpp"
#include "trace/trace.hpp"

namespace sipre
{

/**
 * One or more simulated cores, each executing its own trace, over a
 * shared LLC and DRAM.
 *
 * Typical use:
 * @code
 *   Trace trace = synth::generateTrace(spec, 1'000'000);
 *   Simulator sim(SimConfig::industry(), trace);
 *   SimResult result = sim.run();
 * @endcode
 *
 * All cores share one SimConfig (homogeneous machines, heterogeneous
 * workloads). Per-core attachments take a trailing core index that
 * defaults to 0. Traces must outlive the simulator.
 */
class Simulator
{
  public:
    Simulator(const SimConfig &config, const Trace &trace);
    Simulator(const SimConfig &config, std::vector<const Trace *> traces);

    /// The components hold pointers into this object (profile_).
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Attach a no-overhead software-prefetch trigger map (AsmDB's
     * idealized mode) to one core. Must be called before run(). The map
     * must outlive the simulator.
     */
    void setSwPrefetchTriggers(const SwPrefetchTriggers *triggers,
                               std::size_t core = 0);

    /**
     * Subscribe to one core's L1-I demand misses (the AsmDB profiler's
     * hook). Fires with the missing line address.
     */
    void setL1iMissHook(std::function<void(Addr line_addr)> hook,
                        std::size_t core = 0);

    /**
     * Attach a metadata preloader (paper Sec. VI) to one core: prefetch
     * metadata keyed by trigger line, preloaded from the LLC instead of
     * being carried by inserted instructions. Call before run().
     */
    void attachMetadataPreloader(
        const MetadataPreloadConfig &config,
        std::unordered_map<Addr, std::vector<Addr>> metadata,
        std::size_t core = 0);

    /** Stats of a core's preloader (null when none attached). */
    const MetadataPreloadStats *
    metadataStats(std::size_t core = 0) const
    {
        const auto &preloader = cores_[core]->preloader;
        return preloader ? &preloader->stats() : nullptr;
    }

    /**
     * Turn on windowed FTQ-scenario attribution on every core (off by
     * default): every simulated cycle's taxonomy class is bucketed into
     * `window`-cycle windows published as SimResult::scenario_timeline.
     * `window` of 0 turns it back off. Call before run(). Enabling it
     * never changes any other result field — the differential tests
     * depend on that.
     */
    void enableScenarioTimeline(std::uint32_t window);

    /**
     * Run every core's trace to retirement and collect results. With
     * one core the result is that core's SimResult (no core_results /
     * shared_mem section); with more, core_results holds each core's
     * full SimResult, shared_mem the contention view, and the top level
     * the aggregate (summed counters, slowest-core cycles, shared LLC).
     */
    SimResult run();

    /**
     * Earliest future cycle at which any component can make progress
     * (the fast-forward aggregation point; exposed for tests).
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Instrumentation hook: fired once per executed cycle, after all
     * components ticked. Skipped (fast-forwarded) cycles do not fire.
     */
    std::function<void(Cycle now)> onCycleEnd;

    std::uint32_t
    cores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }

    /** Access to internals for tests and advanced instrumentation. */
    MemoryHierarchy &memory(std::size_t core = 0)
    {
        return cores_[core]->memory;
    }
    DecoupledFrontEnd &frontend(std::size_t core = 0)
    {
        return cores_[core]->frontend;
    }
    Backend &backend(std::size_t core = 0) { return cores_[core]->backend; }
    MemoryController &controller() { return *controller_; }

    /**
     * Per-component wall-clock attribution of this simulator's run,
     * summed over every core and the shared LLC/DRAM. Populated only
     * while the process-wide CycleProfiler is armed (sipre_cli --profile
     * or SIPRE_PROFILE); empty otherwise.
     */
    const ProfileAccumulator &profile() const { return profile_; }

  private:
    /** One core: private pipeline + L1/L2 slice + run-loop state. */
    struct Core
    {
        Core(const SimConfig &config, const Trace &trace,
             MemoryController &controller, std::uint32_t core_index);
        /// The branch callbacks and the L1-I hook capture this address.
        Core(const Core &) = delete;
        Core &operator=(const Core &) = delete;

        const Trace &trace;
        MemoryHierarchy memory;
        DecodeQueue decode_queue;
        DecoupledFrontEnd frontend;
        Backend backend;
        std::unique_ptr<MetadataPreloader> preloader;
        Cycle now = 0; ///< cycle being simulated, for the L1-I hook

        /// Set when a back-end branch callback mutated front-end state
        /// this cycle; forces a front-end tick in the skip loop.
        bool poked = false;
        /// Cached claims (absolute cycle of the earliest possible
        /// activity) of the memory slice, back-end and front-end. They
        /// start at 0 so every component ticks at cycle 0; a claim is
        /// recomputed only after its component (or a producer feeding
        /// it) ticked.
        Cycle c_mem = 0;
        Cycle c_be = 0;
        Cycle c_fe = 0;

        std::uint64_t total;  ///< instructions to retire
        std::uint64_t warmup; ///< warmup retirement threshold
        bool warm;
        Cycle warmup_cycles = 0;
        bool finished;
        Cycle done_cycle = 0;
    };

    SimResult collectCore(Core &core) const;

    SimConfig config_;
    ProfileAccumulator profile_;
    std::unique_ptr<MemoryController> controller_;
    /// Heap-held so each Core keeps its address.
    std::vector<std::unique_ptr<Core>> cores_;
};

} // namespace sipre

#endif // SIPRE_CORE_SIMULATOR_HPP
