#include "trace/trace.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "util/bits.hpp"
#include "util/logging.hpp"

namespace sipre
{

namespace
{

constexpr char kMagic[4] = {'S', 'I', 'P', 'T'};
constexpr std::uint32_t kVersion = 1;

/**
 * Packed on-disk record (fixed layout, little-endian hosts only). The
 * record's one address goes in the slot its class uses; the other
 * slot is 0.
 */
struct PackedRecord
{
    std::uint64_t pc;
    std::uint64_t target;   ///< branch or software-prefetch target
    std::uint64_t mem_addr; ///< load/store effective address
    std::uint8_t cls;
    std::uint8_t size;
    std::uint8_t taken;
    std::uint8_t dst;
    std::uint8_t src0;
    std::uint8_t src1;
    std::uint8_t pad[2];
};
static_assert(sizeof(PackedRecord) == 32, "trace record layout drifted");

/** The slot of `rec` that holds an address of `kind`; null for none. */
std::uint64_t *
addrSlot(PackedRecord &rec, AddrKind kind)
{
    switch (kind) {
      case AddrKind::kTarget:
        return &rec.target;
      case AddrKind::kEffective:
        return &rec.mem_addr;
      case AddrKind::kNone:
        break;
    }
    return nullptr;
}

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/**
 * Bytes from `f`'s position to its end, or nullopt when `f` cannot
 * seek (a pipe). No size that a file's header claims may exceed it.
 */
std::optional<std::uint64_t>
bytesLeft(std::FILE *f)
{
    const long here = std::ftell(f);
    if (here < 0 || std::fseek(f, 0, SEEK_END) != 0)
        return std::nullopt;
    const long end = std::ftell(f);
    if (end < here || std::fseek(f, here, SEEK_SET) != 0)
        return std::nullopt;
    return static_cast<std::uint64_t>(end - here);
}

/** The static part of `inst`. */
StaticInstruction
staticPart(const TraceInstruction &inst)
{
    return StaticInstruction{inst.pc, inst.cls, inst.size, inst.dst,
                             inst.src};
}

} // namespace

std::size_t
Trace::StaticHash::operator()(const StaticInstruction &s) const
{
    const std::uint64_t shape =
        static_cast<std::uint64_t>(s.cls) | std::uint64_t{s.size} << 8 |
        std::uint64_t{s.dst} << 16 | std::uint64_t{s.src[0]} << 24 |
        std::uint64_t{s.src[1]} << 32;
    return static_cast<std::size_t>(mix64(s.pc ^ mix64(shape)));
}

void
Trace::append(const TraceInstruction &inst)
{
    // Index what addStatic added since the last general append.
    for (; indexed_ < statics_.size(); ++indexed_) {
        index_.emplace(statics_[indexed_],
                       static_cast<StaticIndex>(indexed_));
    }
    const auto [it, added] = index_.try_emplace(
        staticPart(inst), static_cast<StaticIndex>(statics_.size()));
    if (added) {
        addStatic(it->first);
        ++indexed_;
    }
    appendExecution(it->second, inst.taken, inst.addr);
}

Trace::StaticIndex
Trace::addStatic(const StaticInstruction &inst)
{
    // The index shares 32 bits with the taken bit.
    SIPRE_ASSERT(statics_.size() < (std::size_t{1} << 31),
                 "trace static table is full");
    statics_.push_back(inst);
    return static_cast<StaticIndex>(statics_.size() - 1);
}

void
Trace::clear()
{
    statics_.clear();
    refs_.clear();
    addrs_.clear();
    index_.clear();
    indexed_ = 0;
}

void
Trace::rebase(Addr offset)
{
    if (offset == 0)
        return;
    for (StaticInstruction &inst : statics_)
        inst.pc += offset;
    for (Addr &addr : addrs_) {
        if (addr != 0)
            addr += offset;
    }
    // The index is keyed by the old pcs; append() rebuilds it.
    index_.clear();
    indexed_ = 0;
}

bool
Trace::save(const std::string &path) const
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return false;

    if (std::fwrite(kMagic, 1, 4, f.get()) != 4)
        return false;
    if (std::fwrite(&kVersion, sizeof kVersion, 1, f.get()) != 1)
        return false;

    const std::uint32_t name_len = static_cast<std::uint32_t>(name_.size());
    if (std::fwrite(&name_len, sizeof name_len, 1, f.get()) != 1)
        return false;
    if (name_len > 0 &&
        std::fwrite(name_.data(), 1, name_len, f.get()) != name_len)
        return false;
    if (std::fwrite(&seed_, sizeof seed_, 1, f.get()) != 1)
        return false;

    const std::uint64_t count = size();
    if (std::fwrite(&count, sizeof count, 1, f.get()) != 1)
        return false;

    for (const TraceInstruction &inst : *this) {
        PackedRecord rec{};
        rec.pc = inst.pc;
        if (std::uint64_t *slot = addrSlot(rec, inst.addrKind()))
            *slot = inst.addr;
        rec.cls = static_cast<std::uint8_t>(inst.cls);
        rec.size = inst.size;
        rec.taken = inst.taken ? 1 : 0;
        rec.dst = inst.dst;
        rec.src0 = inst.src[0];
        rec.src1 = inst.src[1];
        if (std::fwrite(&rec, sizeof rec, 1, f.get()) != 1)
            return false;
    }
    return true;
}

bool
Trace::load(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return false;

    char magic[4];
    if (std::fread(magic, 1, 4, f.get()) != 4 ||
        std::memcmp(magic, kMagic, 4) != 0)
        return false;
    std::uint32_t version = 0;
    if (std::fread(&version, sizeof version, 1, f.get()) != 1 ||
        version != kVersion)
        return false;

    std::uint32_t name_len = 0;
    if (std::fread(&name_len, sizeof name_len, 1, f.get()) != 1)
        return false;
    const std::optional<std::uint64_t> name_bytes = bytesLeft(f.get());
    if (name_bytes && name_len > *name_bytes)
        return false;
    name_.resize(name_len);
    if (name_len > 0 &&
        std::fread(name_.data(), 1, name_len, f.get()) != name_len)
        return false;
    if (std::fread(&seed_, sizeof seed_, 1, f.get()) != 1)
        return false;

    std::uint64_t count = 0;
    if (std::fread(&count, sizeof count, 1, f.get()) != 1)
        return false;

    // Reserve only a count the rest of the file can hold: a 29-byte
    // file may claim 2^60 records.
    const std::optional<std::uint64_t> record_bytes = bytesLeft(f.get());
    if (record_bytes && count > *record_bytes / sizeof(PackedRecord))
        return false;
    clear();
    if (record_bytes)
        reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        PackedRecord rec{};
        if (std::fread(&rec, sizeof rec, 1, f.get()) != 1)
            return false;
        if (rec.cls >= static_cast<std::uint8_t>(InstClass::kNumClasses))
            return false;
        TraceInstruction inst;
        inst.pc = rec.pc;
        inst.cls = static_cast<InstClass>(rec.cls);
        if (std::uint64_t *slot = addrSlot(rec, inst.addrKind())) {
            inst.addr = *slot;
            *slot = 0;
        }
        // An address in a slot the class does not use: not a record
        // that save() writes.
        if (rec.target != 0 || rec.mem_addr != 0)
            return false;
        inst.size = rec.size;
        inst.taken = rec.taken != 0;
        inst.dst = rec.dst;
        inst.src = {rec.src0, rec.src1};
        append(inst);
    }
    return true;
}

} // namespace sipre
