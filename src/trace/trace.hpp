/**
 * @file
 * In-memory instruction trace with a binary on-disk format.
 */
#ifndef SIPRE_TRACE_TRACE_HPP
#define SIPRE_TRACE_TRACE_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "trace/instruction.hpp"

namespace sipre
{

/**
 * An ordered sequence of retired-path instructions plus identifying
 * metadata. Traces are value types; the simulator holds them by
 * reference and never mutates them.
 */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    std::uint64_t seed() const { return seed_; }
    void setSeed(std::uint64_t seed) { seed_ = seed; }

    std::size_t size() const { return instructions_.size(); }
    bool empty() const { return instructions_.empty(); }

    const TraceInstruction &operator[](std::size_t i) const
    {
        return instructions_[i];
    }

    const std::vector<TraceInstruction> &instructions() const
    {
        return instructions_;
    }

    void
    append(const TraceInstruction &inst)
    {
        instructions_.push_back(inst);
    }

    void reserve(std::size_t n) { instructions_.reserve(n); }
    void clear() { instructions_.clear(); }

    /**
     * Relocate the whole process image by `offset` (ASLR-style): every
     * pc, branch/prefetch target, and effective address shifts
     * together, so the program's behaviour against private structures
     * indexed by low address bits is unchanged for any offset aligned
     * beyond their index width. Multi-core entry points rebase each
     * core's trace to a distinct base so that co-running *distinct*
     * processes do not alias in the shared LLC the way the synthesized
     * workloads' overlapping virtual layouts otherwise would.
     */
    void
    rebase(Addr offset)
    {
        if (offset == 0)
            return;
        for (TraceInstruction &inst : instructions_) {
            inst.pc += offset;
            if (inst.addr != 0)
                inst.addr += offset;
        }
    }

    auto begin() const { return instructions_.begin(); }
    auto end() const { return instructions_.end(); }

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
    std::string name_;
    std::uint64_t seed_ = 0;
    std::vector<TraceInstruction> instructions_;
};

} // namespace sipre

#endif // SIPRE_TRACE_TRACE_HPP
