#include "core/simulator.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "hwpf/builder.hpp"
#include "trace_obs/recorder.hpp"
#include "util/logging.hpp"

namespace sipre
{

namespace
{
/** Decode-queue capacity between fetch and dispatch. */
constexpr std::size_t kDecodeQueueSize = 64;

/** Cycles without retirement progress before declaring a deadlock. */
constexpr Cycle kDeadlockThreshold = 1'000'000;

void
mergeInto(CacheStats &into, const CacheStats &from)
{
    into.accesses += from.accesses;
    into.hits += from.hits;
    into.misses += from.misses;
    into.mshr_merges += from.mshr_merges;
    into.prefetch_requests += from.prefetch_requests;
    into.prefetch_hits += from.prefetch_hits;
    into.prefetch_fills += from.prefetch_fills;
    into.prefetch_useful += from.prefetch_useful;
    into.prefetch_late += from.prefetch_late;
    into.evictions += from.evictions;
    into.writebacks_out += from.writebacks_out;
    into.writebacks_in += from.writebacks_in;
}

void
mergeInto(FrontendStats &into, const FrontendStats &from)
{
    into.scenario1_cycles += from.scenario1_cycles;
    into.scenario2_cycles += from.scenario2_cycles;
    into.scenario3_cycles += from.scenario3_cycles;
    into.ftq_empty_cycles += from.ftq_empty_cycles;
    into.head_stall_cycles += from.head_stall_cycles;
    into.waiting_entry_events += from.waiting_entry_events;
    into.partial_head_events += from.partial_head_events;
    into.head_fetch_latency.merge(from.head_fetch_latency);
    into.nonhead_fetch_latency.merge(from.nonhead_fetch_latency);
    into.head_latency_hist.merge(from.head_latency_hist);
    into.nonhead_latency_hist.merge(from.nonhead_latency_hist);
    into.l1i_fetches_issued += from.l1i_fetches_issued;
    into.l1i_fetches_merged += from.l1i_fetches_merged;
    into.blocks_allocated += from.blocks_allocated;
    into.instructions_delivered += from.instructions_delivered;
    into.sw_prefetches_triggered += from.sw_prefetches_triggered;
    into.mispredict_stalls += from.mispredict_stalls;
    into.btb_miss_stalls += from.btb_miss_stalls;
    into.stall_cycles_mispredict += from.stall_cycles_mispredict;
    into.stall_cycles_btb_miss += from.stall_cycles_btb_miss;
    into.pfc_resumes += from.pfc_resumes;
    into.wrong_path_prefetches += from.wrong_path_prefetches;
    into.itlb_walks += from.itlb_walks;
}

void
mergeInto(BackendStats &into, const BackendStats &from)
{
    into.retired += from.retired;
    into.retired_sw_prefetches += from.retired_sw_prefetches;
    into.dispatched += from.dispatched;
    into.loads_issued += from.loads_issued;
    into.stores_issued += from.stores_issued;
    into.rob_full_cycles += from.rob_full_cycles;
    into.empty_rob_cycles += from.empty_rob_cycles;
}

void
mergeInto(BranchUnitStats &into, const BranchUnitStats &from)
{
    into.cond_predictions += from.cond_predictions;
    into.cond_mispredictions += from.cond_mispredictions;
    into.btb_miss_taken += from.btb_miss_taken;
    into.target_mispredictions += from.target_mispredictions;
}

void
mergeInto(BtbStats &into, const BtbStats &from)
{
    into.lookups += from.lookups;
    into.hits += from.hits;
    into.updates += from.updates;
    into.evictions += from.evictions;
}

} // namespace

Simulator::Core::Core(const SimConfig &config, const Trace &trace_in,
                      MemoryController &controller, std::uint32_t core_index)
    : trace(trace_in),
      memory(config.memory, controller.port(core_index), &controller.llc(),
             &controller.dram(), static_cast<std::uint8_t>(core_index)),
      decode_queue(kDecodeQueueSize),
      frontend(config.frontend, trace_in, memory, decode_queue),
      backend(config.backend, trace_in, memory, decode_queue),
      total(trace_in.size()),
      warmup(static_cast<std::uint64_t>(static_cast<double>(total) *
                                        config.warmup_fraction)),
      warm(warmup == 0), finished(total == 0)
{
    // The hwpf-managed prefetcher kinds need the front-end (FTQ walk,
    // iTLB), so the hierarchy factory left the slot empty for them and
    // they are assembled and wired here.
    auto built = hwpf::buildPrefetchers(config.memory.l1i_prefetcher);
    if (!built.components.empty()) {
        if (built.ftq_observer != nullptr) {
            frontend.setFtqObserver(built.ftq_observer,
                                    built.fdip_lookahead_blocks,
                                    built.fdip_walk_blocks_per_cycle);
        }
        for (auto *wrapper : built.tlb_aware)
            wrapper->setTlb(frontend.itlb());
        memory.l1i().setDemotePrefetchFills(built.demote_fills);
        for (auto &pf : built.components)
            memory.installIPrefetcher(std::move(pf));
    }

    // The poke flag tells the skip loop that the back-end mutated
    // front-end state mid-cycle (stall resume, PFC), so the front-end
    // must tick this cycle even if its cached claim says it has nothing
    // to do.
    backend.onBranchDecoded = [this](std::uint64_t index, Cycle cycle) {
        poked = true;
        frontend.onBranchDecoded(index, cycle);
    };
    backend.onBranchExecuted = [this](std::uint64_t index, Cycle cycle) {
        poked = true;
        frontend.onBranchExecuted(index, cycle);
    };
}

Simulator::Simulator(const SimConfig &config, const Trace &trace)
    : Simulator(config, std::vector<const Trace *>{&trace})
{
}

Simulator::Simulator(const SimConfig &config,
                     std::vector<const Trace *> traces)
    : config_(config)
{
    SIPRE_ASSERT(!traces.empty(), "a simulation needs at least one trace");
    const auto n = static_cast<std::uint32_t>(traces.size());
    controller_ = std::make_unique<MemoryController>(config_.memory, n);
    controller_->setProfiler(&profile_);
    cores_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        cores_.push_back(
            std::make_unique<Core>(config_, *traces[i], *controller_, i));
        cores_.back()->memory.setProfiler(&profile_);
    }
}

void
Simulator::setSwPrefetchTriggers(const SwPrefetchTriggers *triggers,
                                 std::size_t core)
{
    cores_[core]->frontend.setSwPrefetchTriggers(triggers);
}

void
Simulator::attachMetadataPreloader(
    const MetadataPreloadConfig &config,
    std::unordered_map<Addr, std::vector<Addr>> metadata, std::size_t core)
{
    Core *cp = cores_[core].get();
    cp->preloader =
        std::make_unique<MetadataPreloader>(config, std::move(metadata));
    // Chain onto any existing L1-I access hook (e.g. a HW prefetcher).
    auto previous = cp->memory.l1i().onAccess;
    cp->memory.l1i().onAccess = [cp, previous](Addr line, AccessType type,
                                               bool hit) {
        if (previous)
            previous(line, type, hit);
        if (type == AccessType::kIFetch)
            cp->preloader->onL1iAccess(line, cp->now);
    };
}

void
Simulator::setL1iMissHook(std::function<void(Addr)> hook, std::size_t core)
{
    cores_[core]->memory.l1i().onDemandMiss =
        [hook = std::move(hook)](Addr line, AccessType type) {
            if (type == AccessType::kIFetch)
                hook(line);
        };
}

void
Simulator::enableScenarioTimeline(std::uint32_t window)
{
    for (auto &core : cores_)
        core->frontend.enableScenarioTimeline(window);
}

Cycle
Simulator::nextEventCycle(Cycle now) const
{
    // Short-circuit: once any component reports the very next cycle,
    // no earlier answer is possible, so skip the remaining (and more
    // expensive) scans. Ordered cheapest first within each core.
    Cycle next = controller_->nextEventCycle(now);
    if (next <= now + 1)
        return next;
    for (const auto &cp : cores_) {
        const Core &core = *cp;
        if (core.finished)
            continue;
        next = std::min(next, core.memory.nextEventCycle(now));
        if (next <= now + 1)
            return next;
        if (core.preloader) {
            next = std::min(next, core.preloader->nextEventCycle(now));
            if (next <= now + 1)
                return next;
        }
        next = std::min(next, core.backend.nextEventCycle(now));
        if (next <= now + 1)
            return next;
        next = std::min(next, core.frontend.nextEventCycle(now));
        if (next <= now + 1)
            return next;
    }
    return next;
}

SimResult
Simulator::run()
{
    std::string workload;
    for (const auto &core : cores_) {
        if (!workload.empty())
            workload += '+';
        workload += core->trace.name();
    }
    trace_obs::Span span("sim.run", "core");
    span.arg("workload", workload);
    span.arg("config", config_.label);

    const bool fast_forward =
        config_.fast_forward && std::getenv("SIPRE_NO_SKIP") == nullptr;
    Cycle cycle = 0;
    std::uint64_t last_retired = 0;
    Cycle last_progress = 0;
    auto running = static_cast<std::size_t>(
        std::count_if(cores_.begin(), cores_.end(),
                      [](const auto &core) { return !core->finished; }));
    // The shared memory system's cached claim; the cores keep theirs.
    Cycle c_shared = 0;

    while (running > 0) {
        if (!fast_forward) {
            controller_->tick(cycle);
            for (auto &cp : cores_) {
                Core &core = *cp;
                if (core.finished)
                    continue;
                core.now = cycle;
                core.memory.tick(cycle);
                if (core.preloader) {
                    ProfScope scope(&profile_, ProfComponent::kPreloader);
                    core.preloader->tick(cycle, core.memory);
                }
                {
                    ProfScope scope(&profile_, ProfComponent::kBackend);
                    core.backend.tick(cycle);
                }
                {
                    ProfScope scope(&profile_, ProfComponent::kFrontend);
                    core.frontend.tick(cycle);
                }
            }
        } else {
            bool shared_ticked = false;
            bool any_mem_ticked = false;
            if (c_shared <= cycle) {
                controller_->tick(cycle);
                shared_ticked = true;
            } else {
                controller_->accountSkippedCycles(1);
            }
            for (auto &cp : cores_) {
                Core &core = *cp;
                if (core.finished)
                    continue;
                bool mem_ticked = false;
                bool pre_ticked = false;
                bool be_ticked = false;
                bool fe_ticked = false;
                // A shared tick can deliver fills synchronously into
                // this core's L2/L1s (and push writebacks), so the
                // private slice must tick whenever the shared side did.
                if (core.c_mem <= cycle || shared_ticked) {
                    core.now = cycle;
                    core.memory.tick(cycle);
                    mem_ticked = true;
                    any_mem_ticked = true;
                }
                // The preloader's queue is fed by the L1-I access hook
                // (fires inside the memory tick), so its claim is
                // always evaluated fresh — it is two queue checks.
                if (core.preloader &&
                    (cycle == 0 ||
                     core.preloader->nextEventCycle(cycle - 1) <= cycle)) {
                    ProfScope scope(&profile_, ProfComponent::kPreloader);
                    core.preloader->tick(cycle, core.memory);
                    pre_ticked = true;
                }
                // Completion ports must drain in the cycle the fill
                // arrived, exactly as in the reference order.
                const std::size_t decode_before = core.decode_queue.size();
                if (core.c_be <= cycle ||
                    !core.memory.dataCompleted().empty()) {
                    ProfScope scope(&profile_, ProfComponent::kBackend);
                    core.backend.tick(cycle);
                    be_ticked = true;
                } else {
                    core.backend.accountSkippedCycles(1);
                }
                // A dispatch pop can unblock delivery into a previously
                // full decode queue within the same cycle.
                if (core.c_fe <= cycle || core.poked ||
                    core.decode_queue.size() < decode_before ||
                    !core.memory.ifetchCompleted().empty()) {
                    ProfScope scope(&profile_, ProfComponent::kFrontend);
                    core.frontend.tick(cycle);
                    fe_ticked = true;
                } else {
                    core.frontend.accountSkippedCycles(1);
                }
                core.poked = false;
                // Refresh claims for components whose state (or whose
                // inputs) changed this cycle. Core ticks can enqueue
                // into the memory system; only the front-end feeds the
                // decode queue; the back-end only pokes the front-end
                // through the branch callbacks handled above.
                if (mem_ticked || pre_ticked || be_ticked || fe_ticked)
                    core.c_mem = core.memory.nextEventCycle(cycle);
                if (be_ticked || fe_ticked)
                    core.c_be = core.backend.nextEventCycle(cycle);
                if (fe_ticked)
                    core.c_fe = core.frontend.nextEventCycle(cycle);
            }
            // Core memory ticks can push into the shared LLC (bypass or
            // port queue), so the shared claim refreshes whenever the
            // shared side or any private slice ticked.
            if (shared_ticked || any_mem_ticked)
                c_shared = controller_->nextEventCycle(cycle);
        }
        if (onCycleEnd)
            onCycleEnd(cycle);

        std::uint64_t retired = 0;
        for (const auto &core : cores_)
            retired += core->backend.retired();
        if (retired != last_retired) {
            last_retired = retired;
            last_progress = cycle;
        } else if (cycle - last_progress > kDeadlockThreshold) {
            std::uint64_t total = 0;
            for (const auto &core : cores_)
                total += core->total;
            panic("simulator deadlock: no retirement progress for " +
                  std::to_string(cycle - last_progress) +
                  " cycles at cycle " + std::to_string(cycle) +
                  " (workload '" + workload + "', config '" +
                  config_.label + "', retired " + std::to_string(retired) +
                  "/" + std::to_string(total) + ")");
        }
        ++cycle;

        for (auto &cp : cores_) {
            Core &core = *cp;
            if (core.finished)
                continue;
            if (!core.warm && core.backend.retired() >= core.warmup) {
                // End of this core's warmup: zero its event counters but
                // keep all microarchitectural state (caches, BTB,
                // predictor tables). The shared LLC/DRAM/arbiter
                // counters reset once, when the last core warms up.
                core.warm = true;
                core.warmup_cycles = cycle;
                core.frontend.resetStats();
                core.backend.resetStats();
                core.memory.l1i().resetStats();
                core.memory.l1d().resetStats();
                core.memory.l2().resetStats();
                for (auto &pf : core.memory.iprefetchers())
                    pf->resetStats();
                if (std::all_of(cores_.begin(), cores_.end(),
                                [](const auto &c) { return c->warm; }))
                    controller_->resetStats();
            }
            if (core.backend.retired() >= core.total) {
                core.finished = true;
                core.done_cycle = cycle;
                --running;
            }
        }

        if (!fast_forward || running == 0)
            continue;

        // Exact-result fast-forward: every cycle in [cycle, next) would
        // be a pure no-op tick — each component reported it cannot act
        // before `next` — so account the per-cycle counters in bulk and
        // jump the clock. Capped at the deadlock horizon so a genuinely
        // wedged machine still reaches the panic above at the same
        // cycle the reference loop would.
        Cycle next = c_shared;
        for (const auto &cp : cores_) {
            const Core &core = *cp;
            if (core.finished)
                continue;
            next = std::min({next, core.c_mem, core.c_be, core.c_fe});
            if (core.preloader)
                next = std::min(next,
                                core.preloader->nextEventCycle(cycle - 1));
        }
        if (next <= cycle)
            continue;
        const Cycle horizon = last_progress + kDeadlockThreshold + 1;
        next = std::min(next, horizon);
        controller_->accountSkippedCycles(next - cycle);
        for (auto &cp : cores_) {
            if (cp->finished)
                continue;
            cp->frontend.accountSkippedCycles(next - cycle);
            cp->backend.accountSkippedCycles(next - cycle);
        }
        cycle = next;
    }

    if (cores_.size() == 1)
        return collectCore(*cores_[0]);

    SimResult agg;
    agg.workload = workload;
    agg.config_label = config_.label + "-c" + std::to_string(cores_.size());
    agg.core_results.reserve(cores_.size());
    for (const auto &cp : cores_) {
        agg.core_results.push_back(collectCore(*cp));
        const SimResult &r = agg.core_results.back();
        agg.instructions += r.instructions;
        agg.effective_instructions += r.effective_instructions;
        agg.cycles = std::max(agg.cycles, r.cycles);
        mergeInto(agg.frontend, r.frontend);
        mergeInto(agg.backend, r.backend);
        mergeInto(agg.branch, r.branch);
        mergeInto(agg.btb, r.btb);
        mergeInto(agg.l1i, r.l1i);
        mergeInto(agg.l1d, r.l1d);
        mergeInto(agg.l2, r.l2);
        // Every core runs the same prefetcher configuration, so the
        // component lists line up index-for-index.
        if (agg.hwpf.empty()) {
            agg.hwpf = r.hwpf;
        } else {
            for (std::size_t c = 0; c < agg.hwpf.size(); ++c)
                agg.hwpf[c].merge(r.hwpf[c]);
        }
    }
    // The per-core llc fields all duplicate the shared LLC; summing
    // them would count it n times, so the aggregate takes it verbatim.
    agg.llc = controller_->llc().stats();

    agg.shared_mem.llc = controller_->llc().stats();
    agg.shared_mem.dram = controller_->dram().stats();
    agg.shared_mem.llc_core_hits = controller_->llcCoreHits();
    agg.shared_mem.llc_core_misses = controller_->llcCoreMisses();
    agg.shared_mem.port_grants.reserve(cores_.size());
    agg.shared_mem.port_queued.reserve(cores_.size());
    for (const PortStats &ps : controller_->portStats()) {
        agg.shared_mem.port_grants.push_back(ps.grants);
        agg.shared_mem.port_queued.push_back(ps.queued);
    }
    agg.shared_mem.dram_queue_depth = controller_->dramQueueDepth();
    return agg;
}

SimResult
Simulator::collectCore(Core &core) const
{
    SimResult result;
    result.workload = core.trace.name();
    result.config_label = config_.label;
    result.instructions = core.backend.stats().retired;
    result.effective_instructions =
        result.instructions - core.backend.stats().retired_sw_prefetches;
    result.cycles = core.done_cycle - core.warmup_cycles;
    result.frontend = core.frontend.stats();
    result.backend = core.backend.stats();
    result.branch = core.frontend.branchUnit().stats();
    result.btb = core.frontend.branchUnit().btb().stats();
    result.l1i = core.memory.l1i().stats();
    result.l1d = core.memory.l1d().stats();
    result.l2 = core.memory.l2().stats();
    result.llc = controller_->llc().stats();
    for (const auto &pf : core.memory.iprefetchers())
        result.hwpf.push_back(pf->counters());
    result.scenario_timeline = core.frontend.scenarioTimeline();
    return result;
}

} // namespace sipre
