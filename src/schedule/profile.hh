/**
 * @file
 * Kernel profile: everything the performance model and the simulator
 * need to know about one (mapping, schedule) pair on one accelerator,
 * reduced to plain numbers — grid shape, serial trip counts, memory
 * footprints, data traffic per level, padding waste, and coalescing
 * behaviour of every operand.
 *
 * This corresponds to the bound-inference step the paper delegates to
 * the underlying compiler (Sec. 5.3: "DataIn and DataOut can be
 * calculated by inferring the size of buffers used in computation").
 */

#ifndef AMOS_SCHEDULE_PROFILE_HH
#define AMOS_SCHEDULE_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "hw/hardware.hh"
#include "mapping/mapping.hh"
#include "schedule/schedule.hh"

namespace amos {

/** Per-operand traffic/footprint numbers. */
struct OperandProfile
{
    std::string name;
    bool isOutput = false;
    std::int64_t tileBytes = 0;

    /// Distinct tiles referenced by one warp's serial loop.
    std::int64_t tilesPerWarp = 1;
    /// Distinct tiles referenced by one threadblock.
    std::int64_t tilesPerBlock = 1;
    /// Distinct tiles in the whole kernel.
    std::int64_t tilesTotal = 1;

    /**
     * Longest contiguous run (in elements) a staging loop can read
     * from the operand's *software* layout when gathering one tile:
     * the greedy chain of tile iterators whose software strides
     * compose into consecutive addresses. Short runs mean the
     * staging traffic is gather-like and wastes memory transactions.
     * Plan-invariant: copied from MappingPlan::OperandInfo.
     */
    std::int64_t contiguousRun = 1;

    /**
     * Fraction of the operand's tile space holding real data (the
     * rest is trailing padding). Staging loops read only real
     * elements — zero fill happens on chip — and stores are masked,
     * so *global* traffic scales by this fraction while on-chip
     * footprints and compute do not. Plan-invariant, like
     * contiguousRun.
     */
    double usefulFraction = 1.0;
};

/** The complete numeric profile of one scheduled kernel. */
struct KernelProfile
{
    /// @name Grid structure
    /// @{
    std::int64_t numBlocks = 1;
    std::int64_t warpsPerBlock = 1;
    /// Serial intrinsic calls per warp (product of serial trips).
    std::int64_t serialCallsPerWarp = 1;
    /// Total intrinsic calls across the kernel (includes padding).
    std::int64_t totalCalls = 1;
    /// @}

    /// @name Footprints
    /// @{
    std::int64_t sharedBytesPerBlock = 0;
    std::int64_t regBytesPerWarp = 0;
    /// @}

    /// @name Traffic
    /// @{
    std::int64_t globalLoadBytesPerBlock = 0;
    std::int64_t globalStoreBytesPerBlock = 0;
    std::int64_t sharedLoadBytesPerWarp = 0;
    /// @}

    /// Executed-over-useful scalar-op inflation from padding.
    double paddingWaste = 1.0;

    /// Extra div/mod address terms evaluated per intrinsic call
    /// (MappingPlan::addressTerms).
    int addressTerms = 0;

    /// Useful scalar multiply-accumulate operations (no padding).
    std::int64_t usefulOps = 0;

    std::vector<OperandProfile> operands;

    /// Intrinsic timing attributes (the plan's intrinsic, which may
    /// differ from the hardware's primary one when several problem
    /// shapes are exposed).
    double intrinsicLatencyCycles = 1.0;
    int intrinsicUnitsPerSubcore = 1;
    std::string intrinsicName;

    /// Schedule knobs forwarded to the timing models.
    int stageDepth = 1;
    int vectorLanes = 1;
    int unrollDepth = 1;

    /// @name Validity
    /// @{
    bool fitsShared = true; ///< shared footprint within capacity
    bool fitsRegs = true;   ///< register footprint within the file
    bool valid() const { return fitsShared && fitsRegs; }
    /// @}

    std::string toString() const;
};

/**
 * Lower a (plan, schedule) pair into a kernel profile for the given
 * hardware. Panics if the schedule shape does not match the plan.
 */
KernelProfile lowerKernel(const MappingPlan &plan,
                          const Schedule &sched,
                          const HardwareSpec &hw);

/**
 * Expert-chosen schedule heuristic standing in for a hand-tuned
 * library kernel: fill the cores with ~2 blocks each, a few warps
 * per block, double-buffered vectorised staging. Also used to seed
 * the tuner's initial population.
 */
Schedule expertSchedule(const MappingPlan &plan,
                        const HardwareSpec &hw);

/**
 * Emit C-like pseudo-code of the scheduled kernel: the grid binding,
 * staging statements derived from the memory abstraction, and the
 * intrinsic call with its physical mapping expressions. Purely for
 * humans (examples and docs); the simulator consumes the profile.
 */
std::string renderPseudoCode(const MappingPlan &plan,
                             const Schedule &sched,
                             const HardwareSpec &hw);

} // namespace amos

#endif // AMOS_SCHEDULE_PROFILE_HH
