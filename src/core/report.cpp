#include "core/report.hpp"

#include <iomanip>
#include <ostream>

namespace sipre
{

namespace
{

double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(part) /
                            static_cast<double>(whole);
}

double
perKilo(std::uint64_t events, const SimResult &r)
{
    return r.effective_instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(events) /
                     static_cast<double>(r.effective_instructions);
}

} // namespace

void
printReport(const SimResult &r, std::ostream &os)
{
    const auto &f = r.frontend;
    os << std::fixed << std::setprecision(2);
    os << "=== " << r.workload << " / " << r.config_label << " ===\n";
    os << "instructions " << r.effective_instructions << " (+"
       << (r.instructions - r.effective_instructions)
       << " sw prefetches), cycles " << r.cycles << ", IPC " << r.ipc()
       << "\n\n";

    // A co-run's top level sums every core's scenario cycles, so its
    // shares are of the cores' summed cycles (r.cycles is the slowest
    // core's).
    std::uint64_t cycles = r.core_results.empty() ? r.cycles : 0;
    for (const SimResult &core : r.core_results)
        cycles += core.cycles;
    os << "front-end state taxonomy (Sec. III):\n";
    os << "  scenario 1 (shoot-through):  "
       << pct(f.scenario1_cycles, cycles) << "%\n";
    os << "  scenario 2 (stalling head):  "
       << pct(f.scenario2_cycles, cycles) << "%\n";
    os << "  scenario 3 (shadow stalls):  "
       << pct(f.scenario3_cycles, cycles) << "%\n";
    os << "  FTQ empty:                   "
       << pct(f.ftq_empty_cycles, cycles) << "%\n\n";

    os << "front-end events (per kilo-instruction):\n";
    os << "  head stall cycles        "
       << perKilo(f.head_stall_cycles, r) << "\n";
    os << "  waiting entries (Fig10)  "
       << perKilo(f.waiting_entry_events, r) << "\n";
    os << "  partial heads   (Fig11)  "
       << perKilo(f.partial_head_events, r) << "\n";
    os << "  mispredict stalls        "
       << perKilo(f.mispredict_stalls, r) << "\n";
    os << "  BTB-miss stalls          "
       << perKilo(f.btb_miss_stalls, r) << " (PFC resumed "
       << f.pfc_resumes << ")\n";
    os << "  fetch latency head/nonhead  "
       << f.head_fetch_latency.mean() << " / "
       << f.nonhead_fetch_latency.mean() << " cycles (p90 "
       << f.head_latency_hist.percentileUpperBound(0.9) << " / "
       << f.nonhead_latency_hist.percentileUpperBound(0.9) << ")\n";
    os << "  L1-I fetches issued/merged  " << f.l1i_fetches_issued
       << " / " << f.l1i_fetches_merged << "\n";
    os << "  sw prefetches triggered     " << f.sw_prefetches_triggered
       << "\n\n";

    os << "branch prediction:\n";
    os << "  cond MPKI " << r.branchMpki() << ", taken-BTB-miss/Ki "
       << perKilo(r.branch.btb_miss_taken, r) << ", target-miss/Ki "
       << perKilo(r.branch.target_mispredictions, r) << "\n\n";

    os << "caches (demand miss per kilo-instruction):\n";
    os << "  L1I " << r.l1iMpki() << "  (accesses " << r.l1i.accesses
       << ", prefetch useful/late " << r.l1i.prefetch_useful << "/"
       << r.l1i.prefetch_late << ")\n";
    os << "  L1D " << perKilo(r.l1d.misses, r) << "   L2 "
       << perKilo(r.l2.misses, r) << "   LLC "
       << perKilo(r.llc.misses, r) << "\n";

    if (!r.hwpf.empty()) {
        os << "\nhardware instruction prefetchers:\n";
        for (const HwPrefetchCounters &c : r.hwpf) {
            // coverage: prefetch-served fetches over all fetches that
            // would have missed without the prefetcher.
            const std::uint64_t would_miss = c.useful + r.l1i.misses;
            const double coverage =
                would_miss == 0 ? 0.0
                                : static_cast<double>(c.useful) /
                                      static_cast<double>(would_miss);
            os << "  " << c.name << ": issued " << c.issued
               << ", accuracy " << 100.0 * c.accuracy() << "%, coverage "
               << 100.0 * coverage << "%\n";
            os << "    useful/late/polluting  " << c.useful << "/"
               << c.late << "/" << c.polluting << "\n";
            os << "    filtered " << c.filtered << ", dropped ovf/redir/tlb "
               << c.dropped_overflow << "/" << c.dropped_redirect << "/"
               << c.dropped_tlb << ", deferred " << c.deferred_tlb
               << ", demoted fills " << c.demoted_fills << "\n";
        }
    }
}

} // namespace sipre
