/**
 * @file
 * Workload specifications and the dynamic-trace walker.
 *
 * The paper evaluates a 48-trace subset of the CVP-1 championship traces
 * (large instruction working sets, ~2-28 L1-I MPKI). Those traces are not
 * redistributable, so we synthesize workloads with the same *shape*:
 * three archetypes (srv / int / crypto) whose instruction footprints and
 * branch behaviour are tuned to land in the same MPKI band, named after
 * the paper's Figure 1 workload list.
 */
#ifndef SIPRE_TRACE_SYNTH_WORKLOAD_HPP
#define SIPRE_TRACE_SYNTH_WORKLOAD_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/synth/program_model.hpp"
#include "trace/trace.hpp"

namespace sipre::synth
{

/** Workload families mirroring the CVP-1 trace name prefixes. */
enum class Archetype : std::uint8_t {
    kServer,  ///< huge instruction footprint, deep call stacks ("srv")
    kInteger, ///< medium footprint, mixed control flow ("int")
    kCrypto   ///< loop-heavy kernels, smaller-but-still-large footprint
};

/** Everything needed to deterministically regenerate one workload. */
struct WorkloadSpec
{
    std::string name;
    Archetype archetype = Archetype::kServer;
    std::uint64_t seed = 1;
    ProgramParams program;

    // Data-side behaviour.
    std::uint64_t heap_bytes = 1ull << 22; ///< heap working-set size
    double load_miss_bias = 0.3;           ///< fraction of far heap loads
};

/**
 * Derive a fully-parameterized spec for one named workload. The seed and
 * the archetype-specific parameter jitter both derive from the name, so
 * the suite is stable across runs and machines.
 */
WorkloadSpec makeWorkloadSpec(const std::string &name, Archetype archetype,
                              std::uint64_t seed);

/**
 * The 48-workload suite mirroring the paper's Figure 1 list
 * (public_srv_60, secret_crypto52, ..., secret_srv85).
 */
std::vector<WorkloadSpec> cvp1LikeSuite();

/** A small subset of the suite (for quick tests/examples). */
std::vector<WorkloadSpec> cvp1LikeSuite(std::size_t max_workloads);

/**
 * The suite workload called `name`, or null if there is none. Points
 * into one immutable copy of the suite, built on the first call.
 */
const WorkloadSpec *findWorkload(std::string_view name);

/**
 * Execute the program model to emit a dynamic trace of exactly
 * num_instructions instructions (the trace may end mid-block). Only the
 * functions the trace enters are built, and nothing outlives the call.
 */
Trace generateTrace(const WorkloadSpec &spec, std::size_t num_instructions);

} // namespace sipre::synth

#endif // SIPRE_TRACE_SYNTH_WORKLOAD_HPP
