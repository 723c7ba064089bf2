/**
 * @file
 * Tuning cache: persist the outcome of mapping/schedule exploration
 * so a production deployment tunes each (operator, hardware) pair
 * once. Entries serialise the compute mapping (iterator groups), the
 * schedule, and the winning intrinsic by name; they re-materialise
 * into a MappingPlan for any structurally identical computation.
 */

#ifndef AMOS_AMOS_CACHE_HH
#define AMOS_AMOS_CACHE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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
 * File-backed map from workload keys to cache entries.
 *
 * All member functions are safe to call from multiple threads
 * concurrently (a production deployment tunes many operators at
 * once against one shared cache). lookup() hands out a reference
 * whose mapped value may be rewritten by a concurrent insert() of
 * the same key — concurrent readers should prefer tryGet(), which
 * copies the entry under the lock.
 */
class TuningCache
{
  public:
    TuningCache() = default;
    TuningCache(const TuningCache &other);
    TuningCache &operator=(const TuningCache &other);
    TuningCache(TuningCache &&other) noexcept;
    TuningCache &operator=(TuningCache &&other) noexcept;

    /**
     * Cache key of a workload: operator name, iterator extents, and
     * hardware name (structure beyond extents is implied by the
     * operator name for all library operators).
     */
    static std::string keyFor(const TensorComputation &comp,
                              const HardwareSpec &hw);

    bool contains(const std::string &key) const;
    const CacheEntry &lookup(const std::string &key) const;
    /** Copy of the entry under the cache lock; nullopt on miss. */
    std::optional<CacheEntry> tryGet(const std::string &key) const;
    void insert(const std::string &key, CacheEntry entry);
    std::size_t size() const;

    /** Copy of every (key, entry) pair under one lock acquisition. */
    std::vector<std::pair<std::string, CacheEntry>> snapshot() const;

    Json toJson() const;
    /**
     * Rebuild from JSON, skipping (with a warning) entries that do
     * not deserialise — a partially corrupt cache degrades into a
     * smaller cache, never into an aborted load.
     */
    static TuningCache fromJson(const Json &json);

    /**
     * Persist to / restore from a file (JSON document). saveFile is
     * crash-safe and safe against concurrent savers of one path
     * (writeFileAtomic), so readers never observe a torn document.
     * loadFile raises fatal() only when the file cannot be opened;
     * unparseable content yields an empty cache with a warning.
     */
    void saveFile(const std::string &path) const;
    static TuningCache loadFile(const std::string &path);

    /** loadFile when the file exists, else an empty cache. */
    static TuningCache loadFileIfExists(const std::string &path);

    /// @name Lifetime access statistics.
    /// Monotonic counters over contains()/tryGet()/lookup() probes
    /// and insert() calls; copies of a cache start from the source's
    /// current values. Feed these into a MetricsRegistry to expose
    /// them alongside the rest of the pipeline metrics.
    /// @{
    std::uint64_t hitCount() const;
    std::uint64_t missCount() const;
    std::uint64_t insertCount() const;
    /// @}

  private:
    mutable std::mutex _mutex;
    std::map<std::string, CacheEntry> _entries;

    mutable std::atomic<std::uint64_t> _hits{0};
    mutable std::atomic<std::uint64_t> _misses{0};
    std::atomic<std::uint64_t> _inserts{0};
};

} // namespace amos

#endif // AMOS_AMOS_CACHE_HH
