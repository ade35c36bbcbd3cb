#include "core/result_text.hpp"

#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace sipre
{

namespace
{

void
writeHistogram(std::ostream &os, const Histogram &h)
{
    os << h.sum();
    for (std::size_t i = 0; i <= h.buckets(); ++i)
        os << ' ' << h.count(i);
}

void
readHistogram(std::istream &is, Histogram &h)
{
    std::uint64_t sum = 0;
    is >> sum;
    std::vector<std::uint64_t> counts(h.buckets() + 1, 0);
    for (auto &c : counts)
        is >> c;
    if (is)
        h.restore(counts, sum);
}

void
writeFrontend(std::ostream &os, const FrontendStats &f)
{
    os << f.scenario1_cycles << ' ' << f.scenario2_cycles << ' '
       << f.scenario3_cycles << ' ' << f.ftq_empty_cycles << ' '
       << f.head_stall_cycles << ' ' << f.waiting_entry_events << ' '
       << f.partial_head_events << ' ' << f.l1i_fetches_issued << ' '
       << f.l1i_fetches_merged << ' ' << f.blocks_allocated << ' '
       << f.instructions_delivered << ' ' << f.sw_prefetches_triggered
       << ' ' << f.mispredict_stalls << ' ' << f.btb_miss_stalls << ' '
       << f.stall_cycles_mispredict << ' ' << f.stall_cycles_btb_miss
       << ' ' << f.pfc_resumes << ' ' << f.wrong_path_prefetches << ' '
       << f.head_fetch_latency.count() << ' '
       << f.head_fetch_latency.sum() << ' '
       << f.head_fetch_latency.min() << ' '
       << f.head_fetch_latency.max() << ' '
       << f.nonhead_fetch_latency.count() << ' '
       << f.nonhead_fetch_latency.sum() << ' '
       << f.nonhead_fetch_latency.min() << ' '
       << f.nonhead_fetch_latency.max() << ' ' << f.itlb_walks << ' ';
    writeHistogram(os, f.head_latency_hist);
    os << ' ';
    writeHistogram(os, f.nonhead_latency_hist);
}

void
readFrontend(std::istream &is, FrontendStats &f)
{
    std::uint64_t hc, nc;
    double hs, hmin, hmax, ns, nmin, nmax;
    is >> f.scenario1_cycles >> f.scenario2_cycles >> f.scenario3_cycles >>
        f.ftq_empty_cycles >> f.head_stall_cycles >>
        f.waiting_entry_events >> f.partial_head_events >>
        f.l1i_fetches_issued >> f.l1i_fetches_merged >>
        f.blocks_allocated >> f.instructions_delivered >>
        f.sw_prefetches_triggered >> f.mispredict_stalls >>
        f.btb_miss_stalls >> f.stall_cycles_mispredict >>
        f.stall_cycles_btb_miss >> f.pfc_resumes >>
        f.wrong_path_prefetches >> hc >> hs >> hmin >> hmax >> nc >> ns >>
        nmin >> nmax >> f.itlb_walks;
    f.head_fetch_latency.restore(hc, hs, hmin, hmax);
    f.nonhead_fetch_latency.restore(nc, ns, nmin, nmax);
    readHistogram(is, f.head_latency_hist);
    readHistogram(is, f.nonhead_latency_hist);
}

void
writeCache(std::ostream &os, const CacheStats &c)
{
    os << c.accesses << ' ' << c.hits << ' ' << c.misses << ' '
       << c.mshr_merges << ' ' << c.prefetch_requests << ' '
       << c.prefetch_hits << ' ' << c.prefetch_fills << ' '
       << c.prefetch_useful << ' ' << c.prefetch_late << ' '
       << c.evictions << ' ' << c.writebacks_out << ' '
       << c.writebacks_in;
}

void
readCache(std::istream &is, CacheStats &c)
{
    is >> c.accesses >> c.hits >> c.misses >> c.mshr_merges >>
        c.prefetch_requests >> c.prefetch_hits >> c.prefetch_fills >>
        c.prefetch_useful >> c.prefetch_late >> c.evictions >>
        c.writebacks_out >> c.writebacks_in;
}

void
writeResultBody(std::ostream &os, const SimResult &r)
{
    // Both labels are single whitespace-free tokens by construction.
    os << r.workload << ' ' << r.config_label << ' ';
    os << r.instructions << ' ' << r.effective_instructions << ' '
       << r.cycles << ' ';
    writeFrontend(os, r.frontend);
    os << ' ';
    os << r.backend.retired << ' ' << r.backend.retired_sw_prefetches
       << ' ' << r.backend.dispatched << ' ' << r.backend.loads_issued
       << ' ' << r.backend.stores_issued << ' '
       << r.backend.rob_full_cycles << ' ' << r.backend.empty_rob_cycles
       << ' ';
    os << r.branch.cond_predictions << ' ' << r.branch.cond_mispredictions
       << ' ' << r.branch.btb_miss_taken << ' '
       << r.branch.target_mispredictions << ' ';
    os << r.btb.lookups << ' ' << r.btb.hits << ' ' << r.btb.updates
       << ' ' << r.btb.evictions << ' ';
    writeCache(os, r.l1i);
    os << ' ';
    writeCache(os, r.l1d);
    os << ' ';
    writeCache(os, r.l2);
    os << ' ';
    writeCache(os, r.llc);
    // Scenario timeline (v5): tagged section so a garbled record fails
    // loudly instead of shifting every following field.
    os << " tl " << r.scenario_timeline.window_size << ' '
       << r.scenario_timeline.windows.size();
    for (const ScenarioWindow &w : r.scenario_timeline.windows) {
        os << ' ' << w.start_cycle;
        for (const std::uint64_t c : w.cycles)
            os << ' ' << c;
    }
    // Hardware-prefetcher counters: written only when a component ran,
    // so every record produced before this section existed — and every
    // iprefetcher=none record after it — is byte-identical and the
    // cache version needn't change.
    if (!r.hwpf.empty()) {
        os << " hwpf " << r.hwpf.size();
        for (const HwPrefetchCounters &c : r.hwpf) {
            os << ' ' << c.name << ' ' << c.issued << ' ' << c.filtered
               << ' ' << c.dropped_overflow << ' ' << c.dropped_redirect
               << ' ' << c.dropped_tlb << ' ' << c.deferred_tlb << ' '
               << c.useful << ' ' << c.late << ' ' << c.polluting << ' '
               << c.demoted_fills;
        }
    }
}

void
writeU64Vector(std::ostream &os, const std::vector<std::uint64_t> &v)
{
    os << ' ' << v.size();
    for (const std::uint64_t x : v)
        os << ' ' << x;
}

/**
 * Full record (v6): the single-core body plus a tagged "mc" section
 * with the per-core results and the shared LLC/DRAM contention view.
 * Single-core results write "mc 0" so every record has the same shape.
 */
void
writeResult(std::ostream &os, const SimResult &r)
{
    writeResultBody(os, r);
    os << " mc " << r.core_results.size();
    if (!r.core_results.empty()) {
        os << ' ';
        writeCache(os, r.shared_mem.llc);
        os << ' ' << r.shared_mem.dram.reads << ' '
           << r.shared_mem.dram.writebacks << ' '
           << r.shared_mem.dram.row_hits << ' '
           << r.shared_mem.dram.row_misses;
        writeU64Vector(os, r.shared_mem.llc_core_hits);
        writeU64Vector(os, r.shared_mem.llc_core_misses);
        writeU64Vector(os, r.shared_mem.port_grants);
        writeU64Vector(os, r.shared_mem.port_queued);
        os << ' ' << r.shared_mem.dram_queue_depth.sum();
        for (std::size_t i = 0; i < r.shared_mem.dram_queue_depth.buckets();
             ++i)
            os << ' ' << r.shared_mem.dram_queue_depth.count(i);
        for (const SimResult &core : r.core_results) {
            os << ' ';
            writeResultBody(os, core);
        }
    }
    os << '\n';
}

/**
 * Windows past this are a forged/garbled record, not a real timeline
 * (also bounds the allocation a hostile record can demand before the
 * stream check catches it).
 */
constexpr std::uint64_t kMaxTimelineWindows = 1'048'576;

void
readResultBody(std::istream &is, SimResult &r)
{
    is >> r.workload >> r.config_label;
    is >> r.instructions >> r.effective_instructions >> r.cycles;
    readFrontend(is, r.frontend);
    is >> r.backend.retired >> r.backend.retired_sw_prefetches >>
        r.backend.dispatched >> r.backend.loads_issued >>
        r.backend.stores_issued >> r.backend.rob_full_cycles >>
        r.backend.empty_rob_cycles;
    is >> r.branch.cond_predictions >> r.branch.cond_mispredictions >>
        r.branch.btb_miss_taken >> r.branch.target_mispredictions;
    is >> r.btb.lookups >> r.btb.hits >> r.btb.updates >> r.btb.evictions;
    readCache(is, r.l1i);
    readCache(is, r.l1d);
    readCache(is, r.l2);
    readCache(is, r.llc);
    std::string tag;
    std::uint64_t windows = 0;
    is >> tag;
    if (tag != "tl") {
        is.setstate(std::ios::failbit);
        return;
    }
    is >> r.scenario_timeline.window_size >> windows;
    if (!is || windows > kMaxTimelineWindows) {
        is.setstate(std::ios::failbit);
        return;
    }
    r.scenario_timeline.windows.assign(static_cast<std::size_t>(windows),
                                       ScenarioWindow{});
    for (ScenarioWindow &w : r.scenario_timeline.windows) {
        is >> w.start_cycle;
        for (std::uint64_t &c : w.cycles)
            is >> c;
    }
    // Optional hwpf section: absent on unprefetched records (and on
    // every record written before the section existed), so look ahead
    // and rewind when the next token is something else.
    const std::istream::pos_type mark = is.tellg();
    std::string hwpf_tag;
    if (!(is >> hwpf_tag) || hwpf_tag != "hwpf") {
        is.clear();
        is.seekg(mark);
        return;
    }
    std::uint64_t components = 0;
    is >> components;
    if (!is || components > 255) { // the pf_origin tag is a uint8_t
        is.setstate(std::ios::failbit);
        return;
    }
    r.hwpf.assign(static_cast<std::size_t>(components),
                  HwPrefetchCounters{});
    for (HwPrefetchCounters &c : r.hwpf) {
        is >> c.name >> c.issued >> c.filtered >> c.dropped_overflow >>
            c.dropped_redirect >> c.dropped_tlb >> c.deferred_tlb >>
            c.useful >> c.late >> c.polluting >> c.demoted_fills;
    }
}

/** Core counts past this are a garbled record, not a real machine. */
constexpr std::uint64_t kMaxSerializedCores = 256;

void
readU64Vector(std::istream &is, std::vector<std::uint64_t> &v)
{
    std::uint64_t n = 0;
    is >> n;
    if (!is || n > kMaxSerializedCores) {
        is.setstate(std::ios::failbit);
        return;
    }
    v.assign(static_cast<std::size_t>(n), 0);
    for (std::uint64_t &x : v)
        is >> x;
}

void
readResult(std::istream &is, SimResult &r)
{
    readResultBody(is, r);
    std::string tag;
    std::uint64_t cores = 0;
    is >> tag;
    if (tag != "mc") {
        is.setstate(std::ios::failbit);
        return;
    }
    is >> cores;
    if (!is || cores > kMaxSerializedCores) {
        is.setstate(std::ios::failbit);
        return;
    }
    if (cores == 0)
        return;
    readCache(is, r.shared_mem.llc);
    is >> r.shared_mem.dram.reads >> r.shared_mem.dram.writebacks >>
        r.shared_mem.dram.row_hits >> r.shared_mem.dram.row_misses;
    readU64Vector(is, r.shared_mem.llc_core_hits);
    readU64Vector(is, r.shared_mem.llc_core_misses);
    readU64Vector(is, r.shared_mem.port_grants);
    readU64Vector(is, r.shared_mem.port_queued);
    std::uint64_t depth_sum = 0;
    is >> depth_sum;
    std::vector<std::uint64_t> depth_counts(
        r.shared_mem.dram_queue_depth.buckets(), 0);
    for (std::uint64_t &c : depth_counts)
        is >> c;
    if (is)
        r.shared_mem.dram_queue_depth.restore(depth_counts, depth_sum);
    r.core_results.assign(static_cast<std::size_t>(cores), SimResult{});
    for (SimResult &core : r.core_results)
        readResultBody(is, core);
}

} // namespace

void
writeSimResultText(std::ostream &os, const SimResult &result)
{
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    writeResult(os, result);
}

bool
readSimResultText(std::istream &is, SimResult &result)
{
    readResult(is, result);
    return static_cast<bool>(is);
}

} // namespace sipre
