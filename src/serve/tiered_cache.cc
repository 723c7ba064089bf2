#include "tiered_cache.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string_view>

#include "support/atomic_file.hh"
#include "support/hash.hh"
#include "support/logging.hh"

namespace amos {
namespace serve {

namespace {

/// Hex digits of a record's checksum, followed by one space.
constexpr std::size_t kSumDigits = 16;

/** One log line (newline included) for a key's entry. */
std::string
encodeRecord(const std::string &key, const CacheEntry &entry)
{
    std::string body = Json(key).dump() + ' ' + entry.toJson().dump();
    char sum[kSumDigits + 2];
    std::snprintf(sum, sizeof(sum), "%016llx ",
                  static_cast<unsigned long long>(fnv1a(body)));
    return sum + body + '\n';
}

/**
 * Split a record (trailing newline optional) into its key's JSON
 * string and its entry JSON; false when the checksum or the layout
 * does not hold.
 */
bool
splitRecord(std::string_view line, std::string_view &keyJson,
            std::string_view &entryJson)
{
    if (!line.empty() && line.back() == '\n')
        line.remove_suffix(1);
    if (line.size() < kSumDigits + 4 || line[kSumDigits] != ' ')
        return false;
    std::uint64_t sum = 0;
    const char *sumEnd = line.data() + kSumDigits;
    if (std::from_chars(line.data(), sumEnd, sum, 16).ptr != sumEnd)
        return false;
    std::string_view body = line.substr(kSumDigits + 1);
    if (fnv1a(body) != sum || body[0] != '"')
        return false;
    std::size_t end = 1;
    while (end < body.size() && body[end] != '"')
        end += body[end] == '\\' ? 2 : 1;
    if (end + 2 >= body.size() || body[end + 1] != ' ')
        return false;
    keyJson = body.substr(0, end + 1);
    entryJson = body.substr(end + 2);
    return true;
}

/** pread exactly `length` bytes at `offset`; false on EOF or error. */
bool
readFull(int fd, char *out, std::uint64_t length, std::uint64_t offset)
{
    while (length > 0) {
        ssize_t n = ::pread(fd, out, length, static_cast<off_t>(offset));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        out += n;
        length -= static_cast<std::uint64_t>(n);
        offset += static_cast<std::uint64_t>(n);
    }
    return true;
}

/** write all of `data` (an O_APPEND descriptor); false on error. */
bool
writeFull(int fd, std::string_view data)
{
    while (!data.empty()) {
        ssize_t n = ::write(fd, data.data(), data.size());
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

void
lockFile(int fd, int op)
{
    while (::flock(fd, op) != 0 && errno == EINTR) {
    }
}

} // namespace

void
TieredCache::Shard::reset()
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
    inode = 0;
    indexedEnd = 0;
    records = 0;
    index.clear();
}

TieredCache::TieredCache(Options options, MetricsRegistry *registry)
    : _options(std::move(options)),
      _ownMetrics(registry ? nullptr
                           : std::make_unique<MetricsRegistry>()),
      _metrics(registry ? registry : _ownMetrics.get()),
      _memoryHits(_metrics->counter("cache.memory_hits")),
      _diskHits(_metrics->counter("cache.disk_hits")),
      _misses(_metrics->counter("cache.misses")),
      _puts(_metrics->counter("cache.puts")),
      _promotions(_metrics->counter("cache.promotions")),
      _compactions(_metrics->counter("cache.compactions")),
      _recordsDropped(_metrics->counter("cache.disk_records_dropped")),
      _diskReadBytes(_metrics->counter("cache.disk_read_bytes")),
      _memory(_options.memoryCapacity)
{
    if (_options.diskShards == 0)
        _options.diskShards = 1;
    if (hasDisk()) {
        std::filesystem::create_directories(_options.diskDir);
        for (std::size_t s = 0; s < _options.diskShards; ++s) {
            _shards.push_back(std::make_unique<Shard>());
            _shards.back()->path = _options.diskDir + "/shard-" +
                                   std::to_string(s) + ".ndjson";
        }
    }
}

std::size_t
TieredCache::memorySize() const
{
    std::lock_guard<std::mutex> lock(_memMutex);
    return _memory.size();
}

std::size_t
TieredCache::shardOf(const std::string &key) const
{
    return std::hash<std::string>{}(key) % _options.diskShards;
}

bool
TieredCache::openShard(Shard &shard, bool create) const
{
    shard.reset();
    int flags = O_RDWR | O_APPEND | O_CLOEXEC | (create ? O_CREAT : 0);
    int fd = ::open(shard.path.c_str(), flags, 0644);
    if (fd < 0) {
        if (errno != ENOENT)
            warn("TieredCache: cannot open ", shard.path, ": ",
                 std::strerror(errno));
        return false;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return false;
    }
    shard.fd = fd;
    shard.inode = static_cast<std::uint64_t>(st.st_ino);
    return true;
}

void
TieredCache::catchUp(Shard &shard) const
{
    struct stat st;
    if (::stat(shard.path.c_str(), &st) != 0) {
        // No log (yet, or any more): nothing is on disk.
        shard.reset();
        return;
    }
    // First use, or another process compacted the log (a new inode).
    if ((shard.fd < 0 ||
         static_cast<std::uint64_t>(st.st_ino) != shard.inode) &&
        !openShard(shard, false))
        return;
    if (::fstat(shard.fd, &st) == 0)
        indexTail(shard, static_cast<std::uint64_t>(st.st_size));
}

void
TieredCache::indexTail(Shard &shard, std::uint64_t end) const
{
    if (end < shard.indexedEnd) {
        // The log shrank in place: index it from the start.
        shard.index.clear();
        shard.indexedEnd = 0;
        shard.records = 0;
    }
    if (end == shard.indexedEnd)
        return;
    std::string tail(end - shard.indexedEnd, '\0');
    if (!readFull(shard.fd, tail.data(), tail.size(), shard.indexedEnd))
        return;
    std::size_t pos = 0;
    for (std::size_t nl; (nl = tail.find('\n', pos)) != std::string::npos;
         pos = nl + 1) {
        // Records are only ever indexed up to their newline: a torn
        // tail waits until an append terminates it.
        std::string_view line(tail.data() + pos, nl - pos);
        const std::uint64_t offset = shard.indexedEnd + pos;
        ++shard.records;
        std::string_view keyJson, entryJson;
        std::string key;
        bool ok = splitRecord(line, keyJson, entryJson);
        if (ok) {
            try {
                key = Json::parse(std::string(keyJson)).asString();
            } catch (const std::exception &) {
                ok = false;
            }
        }
        if (!ok) {
            _recordsDropped.add();
            warn("TieredCache: skipping corrupt record at byte ", offset,
                 " of ", shard.path);
            continue;
        }
        shard.index[key] = {offset, line.size() + 1};
    }
    shard.indexedEnd += pos;
}

std::optional<std::string>
TieredCache::readRecord(Shard &shard, const std::string &key) const
{
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
        catchUp(shard);
        it = shard.index.find(key);
        if (it == shard.index.end())
            return std::nullopt;
    }
    std::string record(it->second.length, '\0');
    if (!readFull(shard.fd, record.data(), record.size(),
                  it->second.offset)) {
        warn("TieredCache: cannot read a record of ", shard.path);
        return std::nullopt;
    }
    _diskReadBytes.add(record.size());
    return record;
}

std::optional<CacheEntry>
TieredCache::loadFromDisk(const std::string &key)
{
    std::optional<std::string> record;
    {
        Shard &shard = *_shards[shardOf(key)];
        std::lock_guard<std::mutex> lock(shard.mutex);
        record = readRecord(shard, key);
    }
    if (!record)
        return std::nullopt;
    std::string_view keyJson, entryJson;
    try {
        // The checksum was verified when indexed; checking it again
        // keeps a record damaged since then from answering.
        if (splitRecord(*record, keyJson, entryJson))
            return CacheEntry::fromJson(
                Json::parse(std::string(entryJson)));
    } catch (const std::exception &e) {
        warn("TieredCache: cannot decode the record of '", key,
             "': ", e.what());
        return std::nullopt;
    }
    _recordsDropped.add();
    warn("TieredCache: record of '", key, "' fails its checksum");
    return std::nullopt;
}

std::optional<CacheEntry>
TieredCache::get(const std::string &key, Tier *tier)
{
    if (tier)
        *tier = Tier::None;
    {
        std::lock_guard<std::mutex> lock(_memMutex);
        if (auto hit = _memory.get(key)) {
            if (tier)
                *tier = Tier::Memory;
            _memoryHits.add();
            return hit;
        }
    }
    std::optional<CacheEntry> found;
    if (hasDisk())
        found = loadFromDisk(key);
    if (!found) {
        _misses.add();
        return std::nullopt;
    }
    if (tier)
        *tier = Tier::Disk;
    _diskHits.add();
    _promotions.add();
    std::lock_guard<std::mutex> lock(_memMutex);
    _memory.put(key, *found);
    return found;
}

void
TieredCache::append(Shard &shard, const std::string &key,
                    const std::string &record) const
{
    // Lock the file the path names now: a compaction by another
    // process may replace it between our open and our flock.
    for (;;) {
        if (shard.fd < 0 && !openShard(shard, true))
            return;
        lockFile(shard.fd, LOCK_EX);
        struct stat st;
        const int rc = ::stat(shard.path.c_str(), &st);
        if (rc == 0 &&
            static_cast<std::uint64_t>(st.st_ino) == shard.inode)
            break;
        const bool replaced = rc == 0 || errno == ENOENT;
        shard.reset(); // also drops the flock
        if (!replaced)
            return;
    }
    struct stat st;
    if (::fstat(shard.fd, &st) != 0) {
        lockFile(shard.fd, LOCK_UN);
        return;
    }
    const auto size = static_cast<std::uint64_t>(st.st_size);
    indexTail(shard, size);
    // Under the flock nobody else is mid-append, so unindexed bytes
    // are a torn tail; end it so it cannot swallow this record.
    const bool torn = size > shard.indexedEnd;
    if (!writeFull(shard.fd, torn ? "\n" + record : record)) {
        warn("TieredCache: cannot append to ", shard.path, ": ",
             std::strerror(errno));
        lockFile(shard.fd, LOCK_UN);
        return;
    }
    if (torn) {
        ++shard.records;
        _recordsDropped.add();
        warn("TieredCache: skipping torn record at byte ",
             shard.indexedEnd, " of ", shard.path);
    }
    const std::uint64_t offset = size + (torn ? 1 : 0);
    shard.index[key] = {offset, record.size()};
    ++shard.records;
    shard.indexedEnd = offset + record.size();
    if (2 * (shard.records - shard.index.size()) > shard.records)
        compact(shard);
    if (shard.fd >= 0)
        lockFile(shard.fd, LOCK_UN);
}

void
TieredCache::compact(Shard &shard) const
{
    std::string log(shard.indexedEnd, '\0');
    if (!readFull(shard.fd, log.data(), log.size(), 0))
        return;
    std::string live;
    for (const auto &[key, span] : shard.index)
        live.append(log, span.offset, span.length);
    try {
        writeFileAtomic(shard.path, live);
    } catch (const std::exception &e) {
        warn("TieredCache: cannot compact ", shard.path, ": ",
             e.what());
        return;
    }
    _compactions.add();
    // The log is a new file now; closing the old one drops the
    // flock, and the next access re-indexes the new one.
    shard.reset();
}

void
TieredCache::put(const std::string &key, const CacheEntry &entry)
{
    _puts.add();
    {
        std::lock_guard<std::mutex> lock(_memMutex);
        _memory.put(key, entry);
    }
    if (!hasDisk())
        return;
    const std::string record = encodeRecord(key, entry);
    Shard &shard = *_shards[shardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    append(shard, key, record);
}

std::size_t
TieredCache::warm()
{
    if (!hasDisk())
        return 0;
    // Warm order: shards in turn, keys sorted within a shard. Only
    // the last memoryCapacity of them survive in the LRU, so only
    // those are read and decoded.
    std::vector<std::string> order;
    for (auto &shard : _shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        catchUp(*shard);
        for (const auto &[key, span] : shard->index)
            order.push_back(key);
    }
    const std::size_t capacity = _options.memoryCapacity;
    const std::size_t first =
        capacity == 0 || capacity >= order.size()
            ? 0
            : order.size() - capacity;
    for (std::size_t i = first; i < order.size(); ++i) {
        auto entry = loadFromDisk(order[i]);
        if (!entry)
            continue;
        std::lock_guard<std::mutex> lock(_memMutex);
        _memory.put(order[i], std::move(*entry));
    }
    return order.size();
}

std::vector<std::pair<std::string, CacheEntry>>
TieredCache::snapshotMemory() const
{
    std::lock_guard<std::mutex> lock(_memMutex);
    return _memory.items();
}

std::size_t
TieredCache::diskSize() const
{
    std::size_t total = 0;
    for (const auto &shard : _shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        catchUp(*shard);
        total += shard->index.size();
    }
    return total;
}

} // namespace serve
} // namespace amos
