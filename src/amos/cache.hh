/**
 * @file
 * Tuning-record format: the outcome of mapping/schedule exploration,
 * persisted so a production deployment tunes each (operator,
 * hardware) pair once. Entries serialise the compute mapping
 * (iterator groups), the schedule, and the winning intrinsic by name;
 * they re-materialise into a MappingPlan for any structurally
 * identical computation. The store that holds them is
 * serve::TieredCache (src/serve/tiered_cache.hh).
 */

#ifndef AMOS_AMOS_CACHE_HH
#define AMOS_AMOS_CACHE_HH

#include <optional>
#include <string>

#include "hw/hardware.hh"
#include "mapping/mapping.hh"
#include "schedule/schedule.hh"
#include "support/json.hh"

namespace amos {

/// @name Mapping / schedule serialisation.
/// @{
Json mappingToJson(const ComputeMapping &mapping);
ComputeMapping mappingFromJson(const Json &json);
Json scheduleToJson(const Schedule &sched);
Schedule scheduleFromJson(const Json &json);
/// @}

/** One persisted tuning outcome. */
struct CacheEntry
{
    std::string intrinsicName;
    ComputeMapping mapping;
    Schedule schedule;
    double cycles = 0.0;

    Json toJson() const;
    static CacheEntry fromJson(const Json &json);

    /**
     * Re-materialise the plan on a hardware spec; nullopt when the
     * named intrinsic is absent or the mapping no longer validates.
     */
    std::optional<MappingPlan> instantiate(
        const TensorComputation &comp, const HardwareSpec &hw) const;
};

/**
 * Key of a workload in the tuning-record store
 * (serve::TieredCache): operator name, iterator extents, and
 * hardware name (structure beyond extents is implied by the operator
 * name for all library operators).
 */
struct TuningCache
{
    static std::string keyFor(const TensorComputation &comp,
                              const HardwareSpec &hw);
};

} // namespace amos

#endif // AMOS_AMOS_CACHE_HH
