/**
 * @file
 * In-memory instruction trace with a binary on-disk format.
 */
#ifndef SIPRE_TRACE_TRACE_HPP
#define SIPRE_TRACE_TRACE_HPP

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/instruction.hpp"

namespace sipre
{

/**
 * What a trace knows about an instruction from its pc alone: the
 * fields of a TraceInstruction that do not change between executions.
 * A trace holds each one once and points every execution at it.
 */
struct StaticInstruction
{
    Addr pc = 0;
    InstClass cls = InstClass::kAlu;
    std::uint8_t size = 4;
    RegId dst = kNoReg;
    std::array<RegId, 2> src{kNoReg, kNoReg};

    bool operator==(const StaticInstruction &) const = default;

    bool isBranch() const { return isBranchClass(cls); }
    Addr nextPc() const { return pc + size; }
};
static_assert(sizeof(StaticInstruction) == 16,
              "a static instruction is 16 bytes");

/**
 * An ordered sequence of retired-path instructions plus identifying
 * metadata. Traces are value types; the simulator holds them by
 * reference and never mutates them.
 *
 * A trace stores each distinct static instruction once, in a table,
 * and each execution as a 32-bit table index with the taken bit
 * folded in plus the execution's address: 12 bytes per executed
 * instruction. `operator[]` and iteration assemble the 24-byte
 * TraceInstruction by value: a reference bound to `trace[i]` keeps
 * the temporary alive, one taken through a call on it, such as
 * `trace[i].src[0]`, dangles.
 */
class Trace
{
  public:
    /** Position of a static instruction in the table. */
    using StaticIndex = std::uint32_t;

    /** Bytes one execution costs: its table reference and address. */
    static constexpr std::size_t kExecutionBytes =
        sizeof(StaticIndex) + sizeof(Addr);

    Trace() = default;
    explicit Trace(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    std::uint64_t seed() const { return seed_; }
    void setSeed(std::uint64_t seed) { seed_ = seed; }

    /** Executed instructions. */
    std::size_t size() const { return refs_.size(); }
    bool empty() const { return refs_.empty(); }

    /** Executions the trace holds without reallocating. */
    std::size_t
    capacity() const
    {
        return std::min(refs_.capacity(), addrs_.capacity());
    }

    TraceInstruction
    operator[](std::size_t i) const
    {
        const StaticIndex ref = refs_[i];
        const StaticInstruction &s = statics_[ref >> 1];
        TraceInstruction inst;
        inst.pc = s.pc;
        inst.addr = addrs_[i];
        inst.cls = s.cls;
        inst.size = s.size;
        inst.taken = (ref & 1u) != 0;
        inst.dst = s.dst;
        inst.src = s.src;
        return inst;
    }

    /** The static table, in the order entries were added. */
    const std::vector<StaticInstruction> &statics() const
    {
        return statics_;
    }

    /** Table index of execution `i`. */
    StaticIndex staticIndex(std::size_t i) const { return refs_[i] >> 1; }

    /** Committed outcome of execution `i`. */
    bool taken(std::size_t i) const { return (refs_[i] & 1u) != 0; }

    /** Target or effective address of execution `i`, per its class. */
    Addr addr(std::size_t i) const { return addrs_[i]; }

    /**
     * Append one execution, finding its static entry or adding one.
     * Two shapes at one pc get two entries.
     */
    void append(const TraceInstruction &inst);

    /**
     * Add a static entry without looking for an equal one, for a
     * producer that already knows its static instructions. Returns its
     * index for appendExecution.
     */
    StaticIndex addStatic(const StaticInstruction &inst);

    /** Append an execution of the static entry at `index`. */
    void
    appendExecution(StaticIndex index, bool taken, Addr addr)
    {
        refs_.push_back(index << 1 | (taken ? 1u : 0u));
        addrs_.push_back(addr);
    }

    /** Room for `executions` executions and `statics` table entries. */
    void
    reserve(std::size_t executions, std::size_t statics = 0)
    {
        refs_.reserve(executions);
        addrs_.reserve(executions);
        statics_.reserve(statics);
    }

    void clear();

    /**
     * Relocate the whole process image by `offset` (ASLR-style): every
     * pc, branch/prefetch target, and effective address shifts
     * together, so the program's behaviour against private structures
     * indexed by low address bits is unchanged for any offset aligned
     * beyond their index width. Multi-core entry points rebase each
     * core's trace to a distinct base so that co-running *distinct*
     * processes do not alias in the shared LLC the way the synthesized
     * workloads' overlapping virtual layouts otherwise would. Each
     * static pc moves once; an address of 0 stays 0.
     */
    void rebase(Addr offset);

    /** Visits the executions in order, each TraceInstruction by value. */
    class const_iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = TraceInstruction;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = TraceInstruction;

        const_iterator(const Trace *trace, std::size_t i)
            : trace_(trace), i_(i)
        {
        }
        TraceInstruction operator*() const { return (*trace_)[i_]; }
        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const const_iterator &o) const { return i_ == o.i_; }

      private:
        const Trace *trace_;
        std::size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

    /**
     * Serialize to the sipre binary trace format (magic "SIPT", version,
     * metadata, then packed records). Returns false on I/O failure.
     */
    bool save(const std::string &path) const;

    /**
     * Deserialize from the binary format. Returns false on failure: an
     * I/O error, a name or record count the file cannot hold, an
     * unknown class, or an address in a slot its class does not use.
     */
    bool load(const std::string &path);

  private:
    struct StaticHash
    {
        std::size_t operator()(const StaticInstruction &s) const;
    };

    std::string name_;
    std::uint64_t seed_ = 0;
    std::vector<StaticInstruction> statics_;
    std::vector<StaticIndex> refs_; ///< static index << 1 | taken
    std::vector<Addr> addrs_;
    /** Static entry by shape, for append(); covers statics_[0, indexed_). */
    std::unordered_map<StaticInstruction, StaticIndex, StaticHash> index_;
    std::size_t indexed_ = 0;
};

} // namespace sipre

#endif // SIPRE_TRACE_TRACE_HPP
