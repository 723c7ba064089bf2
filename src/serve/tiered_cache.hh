/**
 * @file
 * Two-tier tuning cache for the compilation service.
 *
 * Tier 1 is a bounded in-memory LRU of CacheEntry values (hot
 * working set, lock-free of I/O). Tier 2 is a sharded on-disk store:
 * keys hash across N shard logs, each an append-only NDJSON file of
 * checksummed records, one per put:
 *
 *   <16 hex FNV-1a-64 of the rest> <JSON string key> <entry JSON>\n
 *
 * Each shard keeps an in-memory index from key to the (offset,
 * length) of its newest record, so a disk hit reads and decodes one
 * record and a put appends one line (O_APPEND, under an advisory
 * flock so processes sharing a directory never drop each other's
 * records). A restarted server indexes the logs and warms its memory
 * tier from them; a disk hit is promoted into the memory tier.
 *
 * Fault rules: a tail without a newline (a torn append) is never
 * indexed, and the next append first terminates it; a record whose
 * checksum fails is skipped with a warning and counted. A shard whose
 * superseded records outnumber its live ones is compacted by an
 * atomic rewrite (writeFileAtomic) under the flock. Another process's
 * appends are picked up on an index miss, and its compaction (a new
 * inode) re-indexes the shard.
 */

#ifndef AMOS_SERVE_TIERED_CACHE_HH
#define AMOS_SERVE_TIERED_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "amos/cache.hh"
#include "support/lru.hh"
#include "support/metrics.hh"

namespace amos {
namespace serve {

/** In-memory LRU over a sharded, indexed on-disk record log. */
class TieredCache
{
  public:
    struct Options
    {
        /// Memory-tier entry bound (0 = unbounded).
        std::size_t memoryCapacity = 256;
        /// Disk-tier directory; empty disables the disk tier.
        std::string diskDir;
        /// Shard-log count of the disk tier.
        std::size_t diskShards = 8;
    };

    /** Which tier answered a get(). */
    enum class Tier
    {
        None,
        Memory,
        Disk,
    };

    /**
     * `registry` (when given) receives the tier counters
     * (cache.memory_hits, cache.disk_hits, cache.misses, cache.puts,
     * cache.promotions, cache.compactions,
     * cache.disk_records_dropped, cache.disk_read_bytes); without
     * one the cache counts into a private registry reachable through
     * metrics(). The registry must outlive the cache.
     */
    explicit TieredCache(Options options,
                         MetricsRegistry *registry = nullptr);

    /** The registry the tier counters live in. */
    MetricsRegistry &metrics() { return *_metrics; }

    bool hasDisk() const { return !_options.diskDir.empty(); }
    std::size_t memorySize() const;

    /**
     * Look a key up, memory tier first; a disk hit is promoted into
     * memory. `tier` (when given) reports which tier answered.
     */
    std::optional<CacheEntry> get(const std::string &key,
                                  Tier *tier = nullptr);

    /**
     * Insert into the memory tier and append one record to the disk
     * shard; the record is complete in the log when put returns.
     */
    void put(const std::string &key, const CacheEntry &entry);

    /**
     * Index every disk shard and preload the memory tier with the
     * entries it retains: shards in order, keys sorted within a
     * shard, and only the last `memoryCapacity` of them decoded (all
     * of them when unbounded). Returns the number of disk entries.
     * Called once at server start.
     */
    std::size_t warm();

    /** Total live entries across all disk shards (0 without a disk). */
    std::size_t diskSize() const;

    /**
     * Copy of the memory tier's (key, entry) pairs, taken under one
     * lock acquisition. Warm-start donor scans run over this copy —
     * never compute feature distances while holding the cache mutex
     * (it sits on the serve hot path).
     */
    std::vector<std::pair<std::string, CacheEntry>>
    snapshotMemory() const;

  private:
    /** Where a key's newest record lies in its shard log. */
    struct RecordSpan
    {
        std::uint64_t offset = 0;
        std::uint64_t length = 0; ///< Bytes, trailing newline included.
    };

    /** One shard log and its index; every field is under `mutex`. */
    struct Shard
    {
        std::mutex mutex;
        std::string path;
        /// Read/append descriptor on the log; -1 until first opened.
        int fd = -1;
        /// Inode `fd` is open on; a different inode at `path` means
        /// another process compacted the log.
        std::uint64_t inode = 0;
        /// Bytes of the log indexed; always ends at a newline.
        std::uint64_t indexedEnd = 0;
        /// Newline-terminated records indexed, live, dead or corrupt.
        std::size_t records = 0;
        std::map<std::string, RecordSpan> index;

        ~Shard() { reset(); }
        /** Close the descriptor and forget the index. */
        void reset();
    };

    std::size_t shardOf(const std::string &key) const;

    /// @name Shard-log operations; the caller holds the shard mutex.
    /// @{
    /// The index is a cache of the log, so these are const: they
    /// change only the shard state and the counters.
    bool openShard(Shard &shard, bool create) const;
    void catchUp(Shard &shard) const;
    void indexTail(Shard &shard, std::uint64_t end) const;
    std::optional<std::string> readRecord(Shard &shard,
                                          const std::string &key) const;
    void append(Shard &shard, const std::string &key,
                const std::string &record) const;
    void compact(Shard &shard) const;
    /// @}

    /** Fetch and decode a key's newest disk record. */
    std::optional<CacheEntry> loadFromDisk(const std::string &key);

    Options _options;

    /// Private fallback registry when none is injected.
    std::unique_ptr<MetricsRegistry> _ownMetrics;
    MetricsRegistry *_metrics;
    MetricCounter &_memoryHits;
    MetricCounter &_diskHits;
    MetricCounter &_misses;
    MetricCounter &_puts;
    MetricCounter &_promotions;
    MetricCounter &_compactions;
    MetricCounter &_recordsDropped;
    MetricCounter &_diskReadBytes;

    mutable std::mutex _memMutex;
    LruMap<std::string, CacheEntry> _memory;

    /// One log per shard; empty without a disk tier.
    std::vector<std::unique_ptr<Shard>> _shards;
};

} // namespace serve
} // namespace amos

#endif // AMOS_SERVE_TIERED_CACHE_HH
