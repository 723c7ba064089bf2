/**
 * @file
 * Schedule description (Table 3a of the AMOS paper: tile, fuse, bind,
 * parallel, cache, unroll/vectorize).
 *
 * A schedule refines the outer loop nest left by a mapping: each
 * outer axis splits into a core-parallel (bind) factor, a sub-core
 * (warp) factor, and a serial remainder; global knobs select the
 * software-pipelining depth (cache double buffering), the memory
 * vectorisation width, and the unroll depth. Reduction axes can only
 * be serial — binding them would require cross-core reduction.
 */

#ifndef AMOS_SCHEDULE_SCHEDULE_HH
#define AMOS_SCHEDULE_SCHEDULE_HH

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "mapping/mapping.hh"
#include "support/rng.hh"

namespace amos {

/** Split factors of one outer axis. */
struct AxisSchedule
{
    std::int64_t blockFactor = 1; ///< segments bound to cores
    std::int64_t warpFactor = 1;  ///< segments bound to sub-cores

    auto operator<=>(const AxisSchedule &) const = default;
};

/** A complete schedule for one mapped kernel. */
struct Schedule
{
    /// One entry per MappingPlan outer axis, same order.
    std::vector<AxisSchedule> axes;

    /// Software-pipelining depth for shared staging (1 = none,
    /// 2 = double buffering).
    int stageDepth = 1;

    /// Vector width (elements) of shared<->register transfers.
    int vectorLanes = 1;

    /// Unroll depth of the innermost serial loop.
    int unrollDepth = 1;

    /// Field-wise genome identity and a total order over schedules
    /// (axes lexicographically, then the global knobs).
    auto operator<=>(const Schedule &) const = default;

    std::string toString() const;
};

/** The trivial schedule: everything serial on one core. */
Schedule defaultSchedule(const MappingPlan &plan);

/**
 * Sample a random legal schedule for a plan: block/warp factors from
 * the axis extents' tile candidates (spatial axes only), random
 * pipeline/vector/unroll knobs.
 */
Schedule sampleSchedule(const MappingPlan &plan, Rng &rng);

/**
 * Mutate one knob of a schedule (genetic-algorithm step). Returns a
 * modified copy.
 */
Schedule mutateSchedule(const MappingPlan &plan, const Schedule &sched,
                        Rng &rng);

/**
 * Crossover of two schedules for the same plan: each axis and each
 * global knob is inherited from a random parent.
 */
Schedule crossoverSchedules(const Schedule &a, const Schedule &b,
                            Rng &rng);

} // namespace amos

#endif // AMOS_SCHEDULE_SCHEDULE_HH
