/**
 * @file
 * Co-run helpers. The Simulator runs any number of cores (see
 * core/simulator.hpp); this header adds the per-core address stride the
 * co-run entry points apply and keeps the MultiCoreSimulator name.
 */
#ifndef SIPRE_MULTICORE_MULTICORE_HPP
#define SIPRE_MULTICORE_MULTICORE_HPP

#include "core/simulator.hpp"

namespace sipre
{

/**
 * Per-core virtual-address stride for co-run traces: entry points call
 * `Trace::rebase(core_index * kCoreAddressStride)` so that distinct
 * processes occupy distinct address ranges instead of constructively
 * sharing LLC lines through the synthesized workloads' common layout.
 * Core 0 keeps offset 0, so a solo run and a co-run's core 0 are
 * directly comparable.
 * The stride clears every cache/TLB index, and the synthesized layout
 * regions (code/global/heap/stack) sit at distinct residues mod 2^45,
 * so no two cores' images overlap for any supported core count.
 */
inline constexpr Addr kCoreAddressStride = Addr{1} << 45;

/** The former name of the N-core driver; the benchmark harness uses it. */
using MultiCoreSimulator = Simulator;

} // namespace sipre

#endif // SIPRE_MULTICORE_MULTICORE_HPP
