/**
 * @file
 * The sweep specification behind an asynchronous campaign job: a set of
 * workloads crossed with a cartesian grid of front-end knobs. Parsed
 * from JSON with the same strict validation and knob vocabulary as a
 * single /simulate request, and expanded deterministically into
 * per-(workload, config) shards the JobManager executes through the
 * engine.
 */
#ifndef SIPRE_JOBS_SWEEP_HPP
#define SIPRE_JOBS_SWEEP_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "service/request.hpp"

namespace sipre::jobs
{

/** Per config knob (indexed like service::kKnobs), its encoded values. */
using KnobAxes = std::array<std::vector<std::uint32_t>, service::kKnobCount>;

/** Every knob's axis holding just the default request's value. */
KnobAxes defaultKnobAxes();

/**
 * One validated sweep: every axis holds at least one value; defaults
 * match the single-request defaults, so `{"workloads":["x"]}` means
 * exactly one default-config shard.
 */
struct SweepSpec
{
    std::vector<std::string> workloads;
    /**
     * One fixed heterogeneous co-run mix (workload names, one per
     * core). Mutually exclusive with `workloads` and `cores`: the mix
     * IS the workload dimension and fixes the core count.
     */
    std::vector<std::string> mix;
    std::uint64_t instructions = 2'000'000;
    /** Homogeneous co-run sizes crossed with `workloads`. */
    std::vector<std::uint32_t> cores = {1};
    /** Each config knob's values, in Knob::get's encoding. */
    KnobAxes axes = defaultKnobAxes();

    /**
     * |workloads| × the product of all axis lengths (the workload
     * dimension is 1 when a fixed `mix` stands in for it).
     */
    std::size_t shardCount() const;
};

/** Hard cap on shards per job (bounds record size and queue pressure). */
inline constexpr std::size_t kMaxShardsPerJob = 4096;

/**
 * Parse and validate a JSON sweep spec. `workloads` is required and is
 * either an array of known workload names or the string "all" (the
 * full 48-workload suite) — or `mix` (a fixed per-core workload list)
 * stands in for it. `instructions` is a scalar; `cores` and every knob
 * in service::kKnobs accept a scalar or an array of distinct values,
 * each checked as /simulate checks it. Unknown fields, bad types,
 * duplicate axis values, out-of-range values, and sweeps past
 * kMaxShardsPerJob are rejected with a specific `error`.
 */
bool parseSweepSpec(const std::string &body, SweepSpec &out,
                    std::string &error);

/** Canonical JSON for a spec (stable field and element order). */
std::string sweepSpecToJson(const SweepSpec &spec);

/**
 * Expand the sweep into its shards: workloads outermost, then cores,
 * then the knobs by Knob::sweep_depth. The order is part of the
 * job-record contract — shard indices persist across restarts — so new
 * axes append innermost and the order must never change for a given
 * spec.
 */
std::vector<service::SimRequest> expandSweep(const SweepSpec &spec);

} // namespace sipre::jobs

#endif // SIPRE_JOBS_SWEEP_HPP
