#include "profile.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/math_utils.hh"
#include "support/str_utils.hh"
#include "support/trace.hh"

namespace amos {

std::string
KernelProfile::toString() const
{
    std::string out = "profile{blocks=" + std::to_string(numBlocks);
    out += ", warps=" + std::to_string(warpsPerBlock);
    out += ", serial=" + std::to_string(serialCallsPerWarp);
    out += ", shared=" + std::to_string(sharedBytesPerBlock) + "B";
    out += ", gload=" + std::to_string(globalLoadBytesPerBlock) + "B";
    out += ", waste=" + fmtDouble(paddingWaste, 3);
    out += valid() ? "" : ", INVALID";
    out += "}";
    return out;
}

KernelProfile
lowerKernel(const MappingPlan &plan, const Schedule &sched,
            const HardwareSpec &hw)
{
    const auto &axes = plan.outerAxes();
    require(sched.axes.size() == axes.size(),
            "lowerKernel: schedule has ", sched.axes.size(),
            " axes but the plan has ", axes.size());

    KernelProfile prof;
    prof.stageDepth = sched.stageDepth;
    prof.vectorLanes = sched.vectorLanes;
    prof.unrollDepth = sched.unrollDepth;
    prof.paddingWaste = plan.paddingWasteFactor();
    prof.addressTerms = plan.addressTerms();
    prof.usefulOps = plan.computation().totalIterations();
    prof.totalCalls = plan.intrinsicCallCount();
    prof.intrinsicLatencyCycles = plan.intrinsic().latencyCycles;
    prof.intrinsicUnitsPerSubcore = plan.intrinsic().unitsPerSubcore;
    prof.intrinsicName = plan.intrinsic().name();

    // Per-axis split: extent -> blockFactor x warpFactor x serial.
    // One allocation for both per-axis segment counts: this runs once
    // per screened or measured candidate.
    struct AxisSplit
    {
        std::int64_t blockSeg; ///< segments per block
        std::int64_t serial;   ///< serial trips per warp
    };
    std::vector<AxisSplit> split(axes.size());
    for (std::size_t a = 0; a < axes.size(); ++a) {
        std::int64_t extent = axes[a].extent;
        std::int64_t bf = std::min(sched.axes[a].blockFactor, extent);
        require(bf >= 1, "lowerKernel: non-positive block factor");
        split[a].blockSeg = ceilDiv(extent, bf);
        std::int64_t wf =
            std::min(sched.axes[a].warpFactor, split[a].blockSeg);
        require(wf >= 1, "lowerKernel: non-positive warp factor");
        split[a].serial = ceilDiv(split[a].blockSeg, wf);
        require(!axes[a].reduction || (bf == 1 && wf == 1),
                "lowerKernel: reduction axis ", axes[a].name,
                " cannot be block/warp parallel");
        prof.numBlocks *= bf;
        prof.warpsPerBlock *= wf;
        prof.serialCallsPerWarp *= split[a].serial;
    }

    // Per-operand footprint and traffic.
    const auto &intr = plan.intrinsic();
    std::int64_t shared_bytes = 0;
    std::int64_t reg_bytes = 0;
    prof.operands.reserve(plan.operands().size());
    for (const auto &op : plan.operands()) {
        OperandProfile oprof;
        oprof.name = op.name;
        oprof.isOutput = op.isOutput;
        oprof.tileBytes = op.tileBytes;
        oprof.tilesTotal = op.numTiles;
        for (auto a : op.dependentAxes) {
            oprof.tilesPerBlock *= split[a].blockSeg;
            oprof.tilesPerWarp *= split[a].serial;
        }
        oprof.tilesPerBlock =
            std::min(oprof.tilesPerBlock, oprof.tilesTotal);
        oprof.usefulFraction = op.usefulFraction;
        require(op.contiguousRun > 0,
                "lowerKernel: non-affine access on ",
                op.isOutput ? plan.computation().output().name()
                            : plan.computation()
                                  .inputs()[op.inputIndex]
                                  .decl.name());
        oprof.contiguousRun = op.contiguousRun;

        if (op.isOutput) {
            // Accumulator tiles live in registers for the whole
            // warp-serial loop and are stored once; the store is
            // masked to the real region.
            reg_bytes += oprof.tilesPerWarp * op.tileBytes;
            prof.globalStoreBytesPerBlock += static_cast<std::int64_t>(
                oprof.tilesPerBlock * op.tileBytes *
                oprof.usefulFraction);
        } else {
            // Inputs are staged into shared memory one reduction
            // step at a time (spatial extent of the block tile), and
            // re-read from shared by each warp. The padded region is
            // zero-filled on chip, so only real bytes cross the
            // global interface.
            std::int64_t staged_tiles = 1;
            for (auto a : op.dependentAxes)
                if (!axes[a].reduction)
                    staged_tiles *= split[a].blockSeg;
            shared_bytes +=
                staged_tiles * op.tileBytes * sched.stageDepth;
            // Live fragments per warp (current + prefetched).
            reg_bytes += op.tileBytes * sched.stageDepth;

            prof.globalLoadBytesPerBlock += static_cast<std::int64_t>(
                oprof.tilesPerBlock * op.tileBytes *
                oprof.usefulFraction);
            prof.sharedLoadBytesPerWarp +=
                oprof.tilesPerWarp * op.tileBytes;
        }
        prof.operands.push_back(std::move(oprof));
    }
    prof.sharedBytesPerBlock = shared_bytes;
    prof.regBytesPerWarp = reg_bytes;

    prof.fitsShared = shared_bytes <= hw.shared.capacityBytes;
    prof.fitsRegs = reg_bytes <= intr.regFileBytes;
    return prof;
}

Schedule
expertSchedule(const MappingPlan &plan, const HardwareSpec &hw)
{
    TraceSpan span("schedule.expert", "schedule");
    Schedule sched = defaultSchedule(plan);
    const auto &axes = plan.outerAxes();

    // Greedily bind spatial axes to blocks until every core has ~2
    // blocks, then give the largest remaining axis a few warps.
    std::int64_t target_blocks = 2LL * hw.numCores;
    std::int64_t blocks = 1;
    for (std::size_t a = 0; a < axes.size() && blocks < target_blocks;
         ++a) {
        if (axes[a].reduction)
            continue;
        std::int64_t want = std::min(
            axes[a].extent, ceilDiv(target_blocks, blocks));
        sched.axes[a].blockFactor = want;
        blocks *= want;
    }
    // Warp parallelism on the largest leftover spatial segment.
    std::size_t best_axis = axes.size();
    std::int64_t best_extent = 1;
    for (std::size_t a = 0; a < axes.size(); ++a) {
        if (axes[a].reduction)
            continue;
        std::int64_t seg =
            ceilDiv(axes[a].extent, sched.axes[a].blockFactor);
        if (seg > best_extent) {
            best_extent = seg;
            best_axis = a;
        }
    }
    if (best_axis < axes.size())
        sched.axes[best_axis].warpFactor = std::min<std::int64_t>(
            best_extent, hw.subcoresPerCore);

    sched.stageDepth = 2;
    sched.vectorLanes = 4;
    sched.unrollDepth = 2;
    return sched;
}

std::string
renderPseudoCode(const MappingPlan &plan, const Schedule &sched,
                 const HardwareSpec &hw)
{
    const auto &comp = plan.computation();
    const auto &intr = plan.intrinsic();
    const auto &axes = plan.outerAxes();
    auto prof = lowerKernel(plan, sched, hw);

    std::string out;
    out += "// " + comp.name() + " on " + hw.name + " via " +
           intr.name() + "\n";
    out += "// grid: " + std::to_string(prof.numBlocks) +
           " blocks x " + std::to_string(prof.warpsPerBlock) +
           " warps, " + std::to_string(prof.serialCallsPerWarp) +
           " serial calls/warp\n";
    std::string indent;
    for (std::size_t a = 0; a < axes.size(); ++a) {
        const auto &ax = axes[a];
        std::string binding;
        if (sched.axes[a].blockFactor > 1)
            binding += " // bind blockIdx";
        if (sched.axes[a].warpFactor > 1)
            binding += " bind warpIdx";
        out += indent + "for " + ax.name + " in [0, " +
               std::to_string(ax.extent) + ")" + binding + "\n";
        indent += "  ";
    }
    for (const auto &stmt : intr.memory.statements()) {
        if (stmt.operand == intr.compute.dst().name)
            continue;
        out += indent + std::string(memScopeName(stmt.dstScope)) +
               "." + stmt.operand + " = " +
               memScopeName(stmt.srcScope) + "." + stmt.operand +
               "[addr, stride]  // stage " +
               std::to_string(sched.stageDepth) + "-deep, vec " +
               std::to_string(sched.vectorLanes) + "\n";
    }
    out += indent + intr.name() + "(" +
           plan.computeMappingString() + ")\n";
    out += indent + "global." + intr.compute.dst().name +
           " = reg." + intr.compute.dst().name + "\n";
    return out;
}

} // namespace amos
