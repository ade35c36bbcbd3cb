/**
 * @file
 * A one-core memory system for component tests, built the way the
 * Simulator builds it at one core: a one-port MemoryController owning
 * the LLC and DRAM, and a MemoryHierarchy slice over its port.
 */
#ifndef SIPRE_TESTS_SOLO_MEMORY_HPP
#define SIPRE_TESTS_SOLO_MEMORY_HPP

#include "memory/hierarchy.hpp"
#include "multicore/memory_controller.hpp"

namespace sipre
{

/** The controller, as a base so it is built before the slice. */
struct SoloController
{
    explicit SoloController(const HierarchyConfig &config)
        : controller(config, 1)
    {
    }
    MemoryController controller;
};

/**
 * A MemoryHierarchy slice that owns its controller. tick() advances the
 * controller, then the slice: DRAM, LLC, L2, L1-D, L1-I, the
 * Simulator's order.
 */
class SoloMemory : private SoloController, public MemoryHierarchy
{
  public:
    explicit SoloMemory(const HierarchyConfig &config = {})
        : SoloController(config),
          MemoryHierarchy(config, controller.port(0), &controller.llc(),
                          &controller.dram(), 0)
    {
    }

    void
    tick(Cycle now)
    {
        controller.tick(now);
        MemoryHierarchy::tick(now);
    }
};

} // namespace sipre

#endif // SIPRE_TESTS_SOLO_MEMORY_HPP
