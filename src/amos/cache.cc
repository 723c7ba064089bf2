#include "cache.hh"

#include <fstream>
#include <sstream>

#include "support/atomic_file.hh"
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

TuningCache::TuningCache(const TuningCache &other)
{
    std::lock_guard<std::mutex> lock(other._mutex);
    _entries = other._entries;
    _hits.store(other._hits.load());
    _misses.store(other._misses.load());
    _inserts.store(other._inserts.load());
}

TuningCache &
TuningCache::operator=(const TuningCache &other)
{
    if (this == &other)
        return *this;
    std::scoped_lock lock(_mutex, other._mutex);
    _entries = other._entries;
    _hits.store(other._hits.load());
    _misses.store(other._misses.load());
    _inserts.store(other._inserts.load());
    return *this;
}

TuningCache::TuningCache(TuningCache &&other) noexcept
{
    std::lock_guard<std::mutex> lock(other._mutex);
    _entries = std::move(other._entries);
    _hits.store(other._hits.load());
    _misses.store(other._misses.load());
    _inserts.store(other._inserts.load());
}

TuningCache &
TuningCache::operator=(TuningCache &&other) noexcept
{
    if (this == &other)
        return *this;
    std::scoped_lock lock(_mutex, other._mutex);
    _entries = std::move(other._entries);
    _hits.store(other._hits.load());
    _misses.store(other._misses.load());
    _inserts.store(other._inserts.load());
    return *this;
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

bool
TuningCache::contains(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    bool found = _entries.count(key) > 0;
    (found ? _hits : _misses).fetch_add(1, std::memory_order_relaxed);
    return found;
}

const CacheEntry &
TuningCache::lookup(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _entries.find(key);
    require(it != _entries.end(), "TuningCache: missing key ", key);
    _hits.fetch_add(1, std::memory_order_relaxed);
    // std::map node references stay valid across later inserts (the
    // mapped *value* may still be rewritten by a same-key insert —
    // see the class comment; tryGet() is the concurrent-safe read).
    return it->second;
}

std::optional<CacheEntry>
TuningCache::tryGet(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _entries.find(key);
    if (it == _entries.end()) {
        _misses.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    _hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

void
TuningCache::insert(const std::string &key, CacheEntry entry)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _entries[key] = std::move(entry);
    _inserts.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
TuningCache::hitCount() const
{
    return _hits.load(std::memory_order_relaxed);
}

std::uint64_t
TuningCache::missCount() const
{
    return _misses.load(std::memory_order_relaxed);
}

std::uint64_t
TuningCache::insertCount() const
{
    return _inserts.load(std::memory_order_relaxed);
}

std::size_t
TuningCache::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _entries.size();
}

std::vector<std::pair<std::string, CacheEntry>>
TuningCache::snapshot() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<std::pair<std::string, CacheEntry>> out;
    out.reserve(_entries.size());
    for (const auto &[key, entry] : _entries)
        out.emplace_back(key, entry);
    return out;
}

Json
TuningCache::toJson() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    Json out = Json::object();
    for (const auto &[key, entry] : _entries)
        out.set(key, entry.toJson());
    return out;
}

TuningCache
TuningCache::fromJson(const Json &json)
{
    TuningCache cache;
    if (json.kind() != Json::Kind::Object) {
        warn("TuningCache: document root is not an object; "
             "starting empty");
        return cache;
    }
    for (const auto &[key, value] : json.entries()) {
        try {
            cache._entries[key] = CacheEntry::fromJson(value);
        } catch (const std::exception &e) {
            warn("TuningCache: skipping corrupt entry '", key,
                 "': ", e.what());
        }
    }
    return cache;
}

void
TuningCache::saveFile(const std::string &path) const
{
    writeFileAtomic(path, toJson().dump() + "\n");
}

TuningCache
TuningCache::loadFile(const std::string &path)
{
    std::ifstream in(path);
    expect(in.good(), "TuningCache: cannot read ", path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    try {
        return fromJson(Json::parse(buffer.str()));
    } catch (const std::exception &e) {
        // A truncated or corrupt file (crash mid-write predating the
        // atomic rename, disk fault) costs the cached entries, never
        // the process.
        warn("TuningCache: cannot parse ", path, " (", e.what(),
             "); starting empty");
        return TuningCache();
    }
}

TuningCache
TuningCache::loadFileIfExists(const std::string &path)
{
    std::ifstream probe(path);
    if (!probe.good())
        return TuningCache();
    probe.close();
    return loadFile(path);
}

} // namespace amos
