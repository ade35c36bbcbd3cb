/**
 * @file
 * Hardware instruction prefetchers attached to the L1-I.
 *
 * Two families live behind the same interface: the simple baselines
 * defined here (next-line and the EIP-flavored entangling prefetcher of
 * Fig. 1's "EIP" comparator), and the first-class prefetchers built by
 * `src/hwpf/` (FDIP, MANA-lite, and their TLB-aware wrappers), which
 * need front-end hooks this layer cannot see. `isHwpfManaged()` tells
 * the hierarchy which kinds it must not construct itself.
 *
 * Candidate flow contract: a prefetcher emit()s line addresses into a
 * bounded internal queue (dedup'd, capped at kMaxQueuedCandidates) and
 * the hierarchy drains it with drainInto() once per cycle. A component
 * that misbehaves and emits without bound loses candidates at the cap
 * (counted in dropped_overflow) instead of growing the queue.
 */
#ifndef SIPRE_MEMORY_IPREFETCHER_HPP
#define SIPRE_MEMORY_IPREFETCHER_HPP

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util/circular_buffer.hpp"
#include "util/types.hpp"

namespace sipre
{

/** Which hardware instruction prefetcher is attached to the L1-I. */
enum class IPrefetcherKind : std::uint8_t {
    kNone,
    kNextLine,
    kEipLite,
    kFdip,    ///< FTQ-directed (src/hwpf/), needs the front-end observer
    kMana,    ///< MANA-lite record-based (src/hwpf/)
    kFdipMana ///< FDIP + MANA-lite running side by side (src/hwpf/)
};

/**
 * True for kinds the hwpf subsystem constructs and wires (they need the
 * FTQ observer and/or the iTLB); makeInstrPrefetcher returns null for
 * these and the simulator installs them after the front-end exists.
 */
constexpr bool
isHwpfManaged(IPrefetcherKind kind)
{
    return kind == IPrefetcherKind::kFdip ||
           kind == IPrefetcherKind::kMana ||
           kind == IPrefetcherKind::kFdipMana;
}

/** How a tracked hardware prefetch ultimately fared (Cache hook). */
enum class PrefetchOutcome : std::uint8_t {
    kUseful,       ///< demand hit on the prefetched line
    kLate,         ///< demand caught the prefetch still in flight
    kPollutedEvict,///< evicted without ever being demanded
    kDemotedFill   ///< filled at demoted replacement priority
};

/**
 * The standard counter block every hardware instruction prefetcher
 * reports (surfaced in SimResult, text/JSON serialization, /metrics).
 * accuracy = useful / issued; coverage needs the L1-I demand-miss count
 * and is computed where both are in hand (reports, benches).
 */
struct HwPrefetchCounters
{
    std::string name;                     ///< component name ("fdip", ...)
    std::uint64_t issued = 0;             ///< accepted into the L1-I queue
    std::uint64_t filtered = 0;           ///< dropped at issue (present/
                                          ///  pending line or full port)
    std::uint64_t dropped_overflow = 0;   ///< lost at the candidate cap
    std::uint64_t dropped_redirect = 0;   ///< dropped on an FTQ redirect
    std::uint64_t dropped_tlb = 0;        ///< dropped: would page-walk
    std::uint64_t deferred_tlb = 0;       ///< deferred behind a TLB walk
    std::uint64_t useful = 0;             ///< demand hits on prefetched lines
    std::uint64_t late = 0;               ///< demand merged into the MSHR
    std::uint64_t polluting = 0;          ///< evicted unused
    std::uint64_t demoted_fills = 0;      ///< fills at demoted priority

    /** Add another block's counts into this one; the name is kept. */
    void
    merge(const HwPrefetchCounters &other)
    {
        issued += other.issued;
        filtered += other.filtered;
        dropped_overflow += other.dropped_overflow;
        dropped_redirect += other.dropped_redirect;
        dropped_tlb += other.dropped_tlb;
        deferred_tlb += other.deferred_tlb;
        useful += other.useful;
        late += other.late;
        polluting += other.polluting;
        demoted_fills += other.demoted_fills;
    }

    double
    accuracy() const
    {
        return issued == 0 ? 0.0
                           : static_cast<double>(useful) /
                                 static_cast<double>(issued);
    }
};

/**
 * L1-I prefetcher interface: observes demand accesses, emits candidate
 * line addresses that the hierarchy issues as kPrefetch. See the file
 * comment for the bounded-queue contract.
 */
class InstrPrefetcher
{
  public:
    /** Internal candidate-queue bound; emits past it are dropped. */
    static constexpr std::size_t kMaxQueuedCandidates = 64;

    explicit InstrPrefetcher(std::string name)
    {
        counters_.name = std::move(name);
    }
    virtual ~InstrPrefetcher() = default;

    /** A demand I-fetch looked up `line`; `hit` is the tag outcome. */
    virtual void onAccess(Addr line_addr, bool hit, Cycle now) = 0;

    /** Any candidates waiting (drives the hierarchy's event claim)? */
    virtual bool hasCandidates() const { return !queue_.empty(); }

    /**
     * Move up to `cap` queued candidates into `out` (appended, oldest
     * first). Returns the number moved. `now` lets wrappers apply
     * timing-dependent policies (TLB deferral); the base ignores it.
     */
    virtual std::size_t
    drainInto(std::vector<Addr> &out, std::size_t cap, Cycle now)
    {
        (void)now;
        std::size_t moved = 0;
        while (moved < cap && !queue_.empty()) {
            out.push_back(queue_.front());
            queue_.pop_front();
            ++moved;
        }
        return moved;
    }

    HwPrefetchCounters &counters() { return counters_; }
    const HwPrefetchCounters &counters() const { return counters_; }

    /** Zero the counters (end of warmup); queued work stays. */
    virtual void
    resetStats()
    {
        std::string name = std::move(counters_.name);
        counters_ = HwPrefetchCounters{};
        counters_.name = std::move(name);
    }

  protected:
    /** Queue a candidate: dedup'd against queued lines, capped. */
    void
    emit(Addr line_addr)
    {
        for (Addr queued : queue_) {
            if (queued == line_addr)
                return;
        }
        if (queue_.size() >= kMaxQueuedCandidates) {
            ++counters_.dropped_overflow;
            return;
        }
        queue_.push_back(line_addr);
    }

    std::size_t queueSize() const { return queue_.size(); }
    void clearQueue() { queue_.clear(); }

  private:
    std::deque<Addr> queue_;
    HwPrefetchCounters counters_;
};

/**
 * Construct a hierarchy-owned prefetcher. Null for kNone and for the
 * hwpf-managed kinds (see isHwpfManaged); panics loudly — with the
 * numeric value — on an enum value outside the known set, so a kind
 * added without a construction path fails at the factory instead of
 * silently running unprefetched.
 */
std::unique_ptr<InstrPrefetcher> makeInstrPrefetcher(IPrefetcherKind kind);

/** Prefetch the next `degree` sequential lines on every demand miss. */
class NextLinePrefetcher : public InstrPrefetcher
{
  public:
    explicit NextLinePrefetcher(unsigned degree = 2)
        : InstrPrefetcher("nextline"), degree_(degree)
    {
    }
    void onAccess(Addr line_addr, bool hit, Cycle now) override;

  private:
    unsigned degree_;
};

/**
 * EIP-lite: an entangling instruction prefetcher.
 *
 * On a demand miss to line X, the prefetcher "entangles" X with a line
 * that was demand-accessed roughly one memory latency earlier (the
 * trigger). Future accesses to the trigger prefetch X ahead of its use.
 * A small set-associative entangling table holds up to kWays destination
 * lines per trigger.
 */
class EipLitePrefetcher : public InstrPrefetcher
{
  public:
    EipLitePrefetcher(std::uint32_t table_entries = 2048,
                      std::uint32_t history_depth = 16,
                      Cycle target_distance = 40);
    void onAccess(Addr line_addr, bool hit, Cycle now) override;

  private:
    static constexpr std::uint32_t kWays = 3;

    struct Entry
    {
        Addr trigger = kNoAddr;
        std::array<Addr, kWays> targets{kNoAddr, kNoAddr, kNoAddr};
        std::uint8_t next_slot = 0;
    };

    struct HistoryItem
    {
        Addr line = kNoAddr;
        Cycle when = 0;
    };

    Entry &entryFor(Addr trigger);

    std::vector<Entry> table_;
    CircularBuffer<HistoryItem> history_;
    Cycle target_distance_;
};

} // namespace sipre

#endif // SIPRE_MEMORY_IPREFETCHER_HPP
