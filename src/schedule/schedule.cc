#include "schedule.hh"

#include "support/math_utils.hh"
#include "support/str_utils.hh"
#include "support/trace.hh"

namespace amos {

std::string
Schedule::toString() const
{
    std::string out = "schedule{axes=[";
    out += joinMapped(axes, ", ", [](const AxisSchedule &a) {
        return std::to_string(a.blockFactor) + "b/" +
               std::to_string(a.warpFactor) + "w";
    });
    out += "], stage=" + std::to_string(stageDepth);
    out += ", vec=" + std::to_string(vectorLanes);
    out += ", unroll=" + std::to_string(unrollDepth) + "}";
    return out;
}

Schedule
defaultSchedule(const MappingPlan &plan)
{
    Schedule sched;
    sched.axes.assign(plan.outerAxes().size(), AxisSchedule{});
    return sched;
}

namespace {

const std::vector<int> kStageChoices = {1, 2};
const std::vector<int> kVectorChoices = {1, 2, 4, 8};
const std::vector<int> kUnrollChoices = {1, 2, 4};

} // namespace

Schedule
sampleSchedule(const MappingPlan &plan, Rng &rng)
{
    TraceSpan span("schedule.sample", "schedule");
    Schedule sched = defaultSchedule(plan);
    for (std::size_t a = 0; a < sched.axes.size(); ++a) {
        if (plan.outerAxes()[a].reduction)
            continue;
        std::int64_t extent = plan.outerAxes()[a].extent;
        auto cands = tileCandidates(extent);
        std::int64_t bf = rng.choice(cands);
        std::int64_t remaining = ceilDiv(extent, bf);
        auto warp_cands = tileCandidates(remaining);
        sched.axes[a].blockFactor = bf;
        sched.axes[a].warpFactor = rng.choice(warp_cands);
    }
    sched.stageDepth = rng.choice(kStageChoices);
    sched.vectorLanes = rng.choice(kVectorChoices);
    sched.unrollDepth = rng.choice(kUnrollChoices);
    return sched;
}

Schedule
mutateSchedule(const MappingPlan &plan, const Schedule &sched, Rng &rng)
{
    Schedule out = sched;
    // Pick one knob class to perturb: an axis split or a global knob.
    std::vector<std::size_t> spatial_axes;
    for (std::size_t a = 0; a < out.axes.size(); ++a)
        if (!plan.outerAxes()[a].reduction)
            spatial_axes.push_back(a);

    double roll = rng.uniformReal();
    if (!spatial_axes.empty() && roll < 0.7) {
        std::size_t a = rng.choice(spatial_axes);
        std::int64_t extent = plan.outerAxes()[a].extent;
        if (rng.flip(0.5)) {
            out.axes[a].blockFactor =
                rng.choice(tileCandidates(extent));
        } else {
            std::int64_t remaining =
                ceilDiv(extent, out.axes[a].blockFactor);
            out.axes[a].warpFactor =
                rng.choice(tileCandidates(remaining));
        }
    } else if (roll < 0.8) {
        out.stageDepth = rng.choice(kStageChoices);
    } else if (roll < 0.9) {
        out.vectorLanes = rng.choice(kVectorChoices);
    } else {
        out.unrollDepth = rng.choice(kUnrollChoices);
    }
    return out;
}

Schedule
crossoverSchedules(const Schedule &a, const Schedule &b, Rng &rng)
{
    require(a.axes.size() == b.axes.size(),
            "crossoverSchedules: incompatible schedules");
    Schedule out = a;
    for (std::size_t i = 0; i < out.axes.size(); ++i)
        if (rng.flip(0.5))
            out.axes[i] = b.axes[i];
    if (rng.flip(0.5))
        out.stageDepth = b.stageDepth;
    if (rng.flip(0.5))
        out.vectorLanes = b.vectorLanes;
    if (rng.flip(0.5))
        out.unrollDepth = b.unrollDepth;
    return out;
}

} // namespace amos
