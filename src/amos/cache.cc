#include "cache.hh"

#include <sstream>

#include "support/logging.hh"

namespace amos {

Json
mappingToJson(const ComputeMapping &mapping)
{
    Json groups = Json::array();
    for (const auto &group : mapping.groups) {
        Json members = Json::array();
        for (auto s : group)
            members.push(Json(static_cast<std::int64_t>(s)));
        groups.push(std::move(members));
    }
    Json out = Json::object();
    out.set("groups", std::move(groups));
    return out;
}

ComputeMapping
mappingFromJson(const Json &json)
{
    ComputeMapping mapping;
    const Json &groups = json.get("groups");
    for (std::size_t k = 0; k < groups.size(); ++k) {
        std::vector<std::size_t> members;
        for (std::size_t i = 0; i < groups.at(k).size(); ++i) {
            auto v = groups.at(k).at(i).asInt();
            expect(v >= 0, "cache: negative iterator index");
            members.push_back(static_cast<std::size_t>(v));
        }
        mapping.groups.push_back(std::move(members));
    }
    return mapping;
}

Json
scheduleToJson(const Schedule &sched)
{
    Json axes = Json::array();
    for (const auto &axis : sched.axes) {
        Json a = Json::object();
        a.set("block", Json(axis.blockFactor));
        a.set("warp", Json(axis.warpFactor));
        axes.push(std::move(a));
    }
    Json out = Json::object();
    out.set("axes", std::move(axes));
    out.set("stage", Json(sched.stageDepth));
    out.set("vector", Json(sched.vectorLanes));
    out.set("unroll", Json(sched.unrollDepth));
    return out;
}

Schedule
scheduleFromJson(const Json &json)
{
    Schedule sched;
    const Json &axes = json.get("axes");
    for (std::size_t i = 0; i < axes.size(); ++i) {
        AxisSchedule axis;
        axis.blockFactor = axes.at(i).get("block").asInt();
        axis.warpFactor = axes.at(i).get("warp").asInt();
        expect(axis.blockFactor >= 1 && axis.warpFactor >= 1,
               "cache: non-positive schedule factor");
        sched.axes.push_back(axis);
    }
    sched.stageDepth = static_cast<int>(json.get("stage").asInt());
    sched.vectorLanes = static_cast<int>(json.get("vector").asInt());
    sched.unrollDepth = static_cast<int>(json.get("unroll").asInt());
    return sched;
}

Json
CacheEntry::toJson() const
{
    Json out = Json::object();
    out.set("intrinsic", Json(intrinsicName));
    out.set("mapping", mappingToJson(mapping));
    out.set("schedule", scheduleToJson(schedule));
    out.set("cycles", Json(cycles));
    return out;
}

CacheEntry
CacheEntry::fromJson(const Json &json)
{
    CacheEntry entry;
    entry.intrinsicName = json.get("intrinsic").asString();
    entry.mapping = mappingFromJson(json.get("mapping"));
    entry.schedule = scheduleFromJson(json.get("schedule"));
    entry.cycles = json.get("cycles").asNumber();
    return entry;
}

std::optional<MappingPlan>
CacheEntry::instantiate(const TensorComputation &comp,
                        const HardwareSpec &hw) const
{
    for (const auto &intr : hw.intrinsics) {
        if (intr.name() != intrinsicName)
            continue;
        if (mapping.groups.size() != intr.compute.numIters())
            return std::nullopt;
        for (const auto &group : mapping.groups)
            for (auto s : group)
                if (s >= comp.numIters())
                    return std::nullopt;
        MappingPlan plan(comp, intr, mapping);
        if (!plan.valid())
            return std::nullopt;
        return plan;
    }
    return std::nullopt;
}

std::string
TuningCache::keyFor(const TensorComputation &comp,
                    const HardwareSpec &hw)
{
    std::ostringstream key;
    key << hw.name << "/" << comp.name();
    for (const auto &iv : comp.iters())
        key << "_" << iv.extent;
    // Typed variants are distinct artifacts; the all-f16 default
    // keeps its historical key so persisted caches stay valid.
    bool allDefault = comp.output().dtype() == DataType::F16;
    for (const auto &in : comp.inputs())
        allDefault = allDefault && in.decl.dtype() == DataType::F16;
    if (!allDefault) {
        key << "/";
        for (const auto &in : comp.inputs())
            key << dtypeName(in.decl.dtype()) << "_";
        key << dtypeName(comp.output().dtype());
    }
    return key.str();
}

} // namespace amos
