/**
 * @file
 * The dynamic instruction record: the unit of the trace substrate.
 *
 * The format mirrors what the CVP-1 championship traces provide (PC,
 * instruction class, register operands, memory effective address, branch
 * outcome and target), extended with a software-prefetch class so that
 * the AsmDB rewriter can inject prefetches directly into a trace — the
 * same methodology the paper uses ("we generate instruction traces ...
 * with inserted prefetches ... shifting instruction address").
 */
#ifndef SIPRE_TRACE_INSTRUCTION_HPP
#define SIPRE_TRACE_INSTRUCTION_HPP

#include <array>
#include <cstdint>
#include <string_view>

#include "util/types.hpp"

namespace sipre
{

/** Instruction classes distinguished by the timing model. */
enum class InstClass : std::uint8_t {
    kAlu = 0,        ///< integer ALU op
    kFp,             ///< floating-point op
    kMul,            ///< integer multiply
    kDiv,            ///< divide (long latency)
    kLoad,           ///< memory load
    kStore,          ///< memory store
    kCondBranch,     ///< conditional direct branch
    kDirectJump,     ///< unconditional direct jump
    kIndirectJump,   ///< unconditional indirect jump
    kCall,           ///< direct call (pushes return address)
    kIndirectCall,   ///< indirect call
    kReturn,         ///< return (pops return address)
    kSwPrefetch,     ///< software instruction-prefetch (AsmDB-inserted)
    kNumClasses
};

/** Human-readable class name (for debug output). */
std::string_view instClassName(InstClass cls);

/** True for every control-flow class (including calls/returns). */
constexpr bool
isBranchClass(InstClass cls)
{
    switch (cls) {
      case InstClass::kCondBranch:
      case InstClass::kDirectJump:
      case InstClass::kIndirectJump:
      case InstClass::kCall:
      case InstClass::kIndirectCall:
      case InstClass::kReturn:
        return true;
      default:
        return false;
    }
}

/** True when the branch target comes from a register (not the encoding). */
constexpr bool
isIndirectClass(InstClass cls)
{
    return cls == InstClass::kIndirectJump ||
           cls == InstClass::kIndirectCall || cls == InstClass::kReturn;
}

/** True when the class always transfers control (not conditional). */
constexpr bool
isUnconditionalClass(InstClass cls)
{
    return isBranchClass(cls) && cls != InstClass::kCondBranch;
}

/** What a record's one address means; its class decides. */
enum class AddrKind : std::uint8_t {
    kNone,      ///< the class uses no address; it is 0
    kTarget,    ///< branch target or software-prefetch target
    kEffective, ///< load/store effective address
};

/** The meaning of the address for an instruction of class `cls`. */
constexpr AddrKind
addrKindOf(InstClass cls)
{
    if (isBranchClass(cls) || cls == InstClass::kSwPrefetch)
        return AddrKind::kTarget;
    if (cls == InstClass::kLoad || cls == InstClass::kStore)
        return AddrKind::kEffective;
    return AddrKind::kNone;
}

/**
 * One executed (retired-path) instruction.
 *
 * The trace records the committed path only; wrong-path execution is
 * modeled in the timing simulator as fetch bubbles, as in ChampSim.
 *
 * A record holds one address, and its class decides what it means
 * (addrKindOf): the target of a branch or software prefetch, the
 * effective address of a load or store, and 0 for every other class.
 * No class needs two, so a record is 24 bytes.
 */
struct TraceInstruction
{
    Addr pc = 0;            ///< virtual address of the instruction
    Addr addr = 0;          ///< target or effective address, per cls
    InstClass cls = InstClass::kAlu;
    std::uint8_t size = 4;  ///< instruction bytes
    bool taken = false;     ///< branch outcome (committed)
    RegId dst = kNoReg;     ///< destination register (kNoReg if none)
    std::array<RegId, 2> src{kNoReg, kNoReg}; ///< source registers

    bool isBranch() const { return isBranchClass(cls); }
    bool isIndirect() const { return isIndirectClass(cls); }
    bool isUnconditional() const { return isUnconditionalClass(cls); }
    bool isLoad() const { return cls == InstClass::kLoad; }
    bool isStore() const { return cls == InstClass::kStore; }
    bool isMemory() const { return isLoad() || isStore(); }
    bool isSwPrefetch() const { return cls == InstClass::kSwPrefetch; }
    AddrKind addrKind() const { return addrKindOf(cls); }

    /** Address of the sequential successor. */
    Addr nextPc() const { return pc + size; }

    bool operator==(const TraceInstruction &) const = default;
};
static_assert(sizeof(TraceInstruction) == 24,
              "one address per record: a trace record is 24 bytes");

} // namespace sipre

#endif // SIPRE_TRACE_INSTRUCTION_HPP
