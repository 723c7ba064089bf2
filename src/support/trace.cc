#include "trace.hh"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>

#include "support/metrics.hh"

namespace amos {

namespace {

constexpr std::size_t kDefaultCapacity = 4096;

/** The thread's request scope: one seq plus an optional label. */
thread_local std::uint64_t tls_seq = 0;
thread_local std::string_view tls_label;

/** The calling thread's ring in the (only) recorder. */
thread_local void *tls_ring = nullptr;

/// Presentation order: by start time, ties by duration descending
/// so parents precede children.
bool
startsBefore(const FlightRecord &a, const FlightRecord &b)
{
    if (a.startUs != b.startUs)
        return a.startUs < b.startUs;
    return a.durUs > b.durUs;
}

/// @name Async-signal-safe formatting (crashDump only).
/// @{

void
safeWrite(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        ssize_t n = ::write(fd, data, len);
        if (n <= 0)
            return; // best effort; EINTR retry is not worth it here
        data += n;
        len -= static_cast<std::size_t>(n);
    }
}

void
safeWriteStr(int fd, const char *s)
{
    safeWrite(fd, s, std::strlen(s));
}

/** Unsigned decimal, or microseconds as an integer — sub-us
 *  precision is noise here. */
void
safeWriteU64(int fd, std::uint64_t value)
{
    char tmp[24];
    std::size_t n = 0;
    do {
        tmp[n++] = static_cast<char>('0' + value % 10);
        value /= 10;
    } while (value > 0);
    char buf[24];
    for (std::size_t i = 0; i < n; ++i)
        buf[i] = tmp[n - 1 - i];
    safeWrite(fd, buf, n);
}

void
safeWriteUs(int fd, double us)
{
    safeWriteU64(fd, us < 0 ? 0 : static_cast<std::uint64_t>(us));
}

/// @}

/** Node of the span tree built by buildTree. */
struct TreeNode
{
    const FlightRecord *record;
    std::vector<std::size_t> children;
};

Json
nodeToJson(const std::vector<TreeNode> &nodes, std::size_t index,
           bool objectArgs)
{
    const FlightRecord &r = *nodes[index].record;
    Json out = Json::object();
    out.set("name", Json(r.name ? r.name : ""));
    out.set("cat", Json(r.category ? r.category : ""));
    out.set("start_us", Json(r.startUs));
    out.set("dur_us", Json(r.durUs));
    if (r.argsLen > 0)
        out.set("args", objectArgs ? r.argObject() : Json(r.argString()));
    if (!nodes[index].children.empty()) {
        Json children = Json::array();
        for (auto c : nodes[index].children)
            children.push(nodeToJson(nodes, c, objectArgs));
        out.set("children", std::move(children));
    }
    return out;
}

/**
 * Nest start-sorted records by time containment. Parent = innermost
 * already-placed record that contains this one in time. Same-thread
 * containment is exact (scoped spans nest); cross-thread containment
 * approximates the fork structure of parallelFor, which is what a
 * reader wants to see.
 */
Json
buildTree(const std::vector<FlightRecord> &records, bool objectArgs)
{
    std::vector<TreeNode> nodes;
    std::vector<std::size_t> roots;
    std::vector<std::size_t> stack; // indices of open ancestors
    for (const auto &record : records) {
        nodes.push_back({&record, {}});
        std::size_t index = nodes.size() - 1;
        while (!stack.empty()) {
            const FlightRecord &top = *nodes[stack.back()].record;
            if (record.startUs >= top.startUs &&
                record.startUs + record.durUs <=
                    top.startUs + top.durUs + 1e-6)
                break;
            stack.pop_back();
        }
        if (stack.empty())
            roots.push_back(index);
        else
            nodes[stack.back()].children.push_back(index);
        stack.push_back(index);
    }
    Json tree = Json::array();
    for (auto r : roots)
        tree.push(nodeToJson(nodes, r, objectArgs));
    return tree;
}

} // namespace

std::string
FlightRecord::argString() const
{
    std::string out;
    forEachArg([&](std::string_view key, std::string_view value) {
        if (!out.empty())
            out += ' ';
        out.append(key).append("=").append(value);
    });
    return out;
}

Json
FlightRecord::argObject() const
{
    Json out = Json::object();
    forEachArg([&](std::string_view key, std::string_view value) {
        out.set(std::string(key), Json(std::string(value)));
    });
    return out;
}

FlightRecorder::FlightRecorder()
    : _capacity(kDefaultCapacity),
      _dropCounter(
          &MetricsRegistry::global().counter("trace.dropped_spans")),
      _epoch(std::chrono::steady_clock::now())
{}

std::uint64_t
FlightRecorder::beginRequest(std::string_view label)
{
    std::uint64_t seq =
        _nextSeq.fetch_add(1, std::memory_order_relaxed);
    if (!label.empty() && recordsUnscoped()) {
        std::lock_guard<std::mutex> lock(_registryMutex);
        _labels.emplace(seq, std::string(label));
    }
    return seq;
}

void
FlightRecorder::setRecordUnscoped(bool on)
{
    _recordUnscoped.store(on, std::memory_order_relaxed);
}

void
FlightRecorder::setCapacityPerThread(std::size_t capacity)
{
    _capacity.store(capacity, std::memory_order_relaxed);
}

std::size_t
FlightRecorder::capacityPerThread() const
{
    return _capacity.load(std::memory_order_relaxed);
}

FlightRecorder::Ring &
FlightRecorder::threadRing()
{
    if (tls_ring != nullptr)
        return *static_cast<Ring *>(tls_ring);
    auto ring = std::make_shared<Ring>();
    ring->slots.resize(_capacity.load(std::memory_order_relaxed));
    {
        std::lock_guard<std::mutex> lock(_registryMutex);
        ring->tid = _nextTid++;
        _rings.push_back(ring);
    }
    // The shared_ptr in _rings keeps the ring alive for the
    // recorder's lifetime; the raw cached pointer stays valid after
    // the owning thread exits.
    tls_ring = ring.get();
    return *ring;
}

void
FlightRecorder::push(const FlightRecord &record)
{
    Ring &ring = threadRing();
    std::lock_guard<std::mutex> lock(ring.mutex);
    if (ring.slots.empty())
        return;
    if (ring.used == ring.slots.size()) {
        _overwritten.fetch_add(1, std::memory_order_relaxed);
        if (recordsUnscoped())
            _dropCounter->add();
    } else {
        ++ring.used;
    }
    FlightRecord &slot = ring.slots[ring.next];
    slot = record;
    slot.tid = ring.tid;
    ring.next = (ring.next + 1) % ring.slots.size();
}

std::vector<FlightRecord>
FlightRecorder::sorted(std::uint64_t seq, bool allSeqs) const
{
    std::vector<FlightRecord> out;
    {
        std::lock_guard<std::mutex> lock(_registryMutex);
        for (const auto &ring : _rings) {
            std::lock_guard<std::mutex> ring_lock(ring->mutex);
            std::size_t size = ring->slots.size();
            if (size == 0)
                continue;
            // Oldest-first: the ring wraps at `next`.
            std::size_t start =
                (ring->next + size - ring->used) % size;
            for (std::size_t i = 0; i < ring->used; ++i) {
                const FlightRecord &r = ring->slots[(start + i) % size];
                if (allSeqs || r.seq == seq)
                    out.push_back(r);
            }
        }
    }
    std::sort(out.begin(), out.end(), startsBefore);
    return out;
}

std::vector<FlightRecord>
FlightRecorder::harvest(std::uint64_t seq) const
{
    return sorted(seq, false);
}

Json
FlightRecorder::spanTreeFor(std::uint64_t seq) const
{
    Json out = Json::object();
    out.set("flight_seq", Json(static_cast<std::int64_t>(seq)));
    out.set("spans", buildTree(harvest(seq), false));
    return out;
}

Json
FlightRecorder::traceTreeFor(std::uint64_t seq,
                             const std::string &traceId) const
{
    Json out = Json::object();
    out.set("trace_id", Json(traceId));
    out.set("spans", buildTree(harvest(seq), true));
    return out;
}

Json
FlightRecorder::dumpJson() const
{
    Json records = Json::array();
    for (const auto &r : sorted(0, true)) {
        Json rec = Json::object();
        rec.set("name", Json(r.name ? r.name : ""));
        rec.set("cat", Json(r.category ? r.category : ""));
        rec.set("seq", Json(static_cast<std::int64_t>(r.seq)));
        rec.set("tid", Json(static_cast<std::int64_t>(r.tid)));
        rec.set("start_us", Json(r.startUs));
        rec.set("dur_us", Json(r.durUs));
        if (r.argsLen > 0)
            rec.set("args", Json(r.argString()));
        records.push(std::move(rec));
    }
    Json out = Json::object();
    out.set("records", std::move(records));
    out.set("overwritten",
            Json(static_cast<std::int64_t>(overwrittenCount())));
    return out;
}

Json
FlightRecorder::toChromeJson() const
{
    std::map<std::uint64_t, std::string> labels;
    {
        std::lock_guard<std::mutex> lock(_registryMutex);
        labels = _labels;
    }
    Json events = Json::array();
    for (const auto &r : sorted(0, true)) {
        Json event = Json::object();
        event.set("name", Json(r.name ? r.name : ""));
        event.set("cat", Json(r.category ? r.category : ""));
        event.set("ph", Json("X"));
        event.set("ts", Json(r.startUs));
        event.set("dur", Json(r.durUs));
        event.set("pid", Json(1));
        event.set("tid", Json(static_cast<std::int64_t>(r.tid)));
        auto label = labels.find(r.seq);
        if (r.argsLen > 0 || label != labels.end()) {
            Json args = r.argObject();
            if (label != labels.end())
                args.set("trace_id", Json(label->second));
            event.set("args", std::move(args));
        }
        events.push(std::move(event));
    }
    Json out = Json::object();
    out.set("traceEvents", std::move(events));
    out.set("displayTimeUnit", Json("ms"));
    return out;
}

std::size_t
FlightRecorder::recordCount() const
{
    std::size_t count = 0;
    std::lock_guard<std::mutex> lock(_registryMutex);
    for (const auto &ring : _rings) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        count += ring->used;
    }
    return count;
}

std::uint64_t
FlightRecorder::overwrittenCount() const
{
    return _overwritten.load(std::memory_order_relaxed);
}

void
FlightRecorder::clear()
{
    std::lock_guard<std::mutex> lock(_registryMutex);
    for (auto &ring : _rings) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        ring->next = 0;
        ring->used = 0;
    }
    _labels.clear();
}

void
FlightRecorder::crashDump(int fd) const noexcept
{
    // Deliberately lock-free: the faulting thread may hold a ring
    // mutex (or the registry mutex — then we lose the dump, not the
    // process). _rings only ever grows and shared_ptrs are never
    // removed, so walking a stale snapshot of the vector is safe in
    // practice for a best-effort crash artifact.
    safeWriteStr(fd, "=== amos flight recorder dump ===\n");
    for (std::size_t ri = 0; ri < _rings.size(); ++ri) {
        const Ring *ring = _rings[ri].get();
        if (ring == nullptr)
            continue;
        std::size_t size = ring->slots.size();
        std::size_t used = ring->used;
        if (size == 0 || used == 0 || used > size)
            continue;
        std::size_t start = (ring->next + size - used) % size;
        for (std::size_t i = 0; i < used; ++i) {
            const FlightRecord &r =
                ring->slots[(start + i) % size];
            safeWriteStr(fd, "flight tid=");
            safeWriteU64(fd, ring->tid);
            safeWriteStr(fd, " seq=");
            safeWriteU64(fd, r.seq);
            safeWriteStr(fd, " start_us=");
            safeWriteUs(fd, r.startUs);
            safeWriteStr(fd, " dur_us=");
            safeWriteUs(fd, r.durUs);
            safeWriteStr(fd, " ");
            if (r.name != nullptr)
                safeWriteStr(fd, r.name);
            if (r.argsLen > 0) {
                const char *sep = " [";
                r.forEachArg([&](std::string_view key,
                                 std::string_view value) {
                    safeWriteStr(fd, sep);
                    safeWrite(fd, key.data(), key.size());
                    safeWrite(fd, "=", 1);
                    safeWrite(fd, value.data(), value.size());
                    sep = " ";
                });
                safeWriteStr(fd, "]");
            }
            safeWriteStr(fd, "\n");
        }
    }
    safeWriteStr(fd, "=== end flight recorder dump ===\n");
}

FlightRecorder &
FlightRecorder::global()
{
    static FlightRecorder recorder;
    return recorder;
}

FlightScope::FlightScope(std::uint64_t seq, std::string_view label)
    : _previousSeq(tls_seq), _previousLabel(tls_label)
{
    tls_seq = seq;
    tls_label = label;
}

FlightScope::~FlightScope()
{
    tls_seq = _previousSeq;
    tls_label = _previousLabel;
}

std::uint64_t
FlightScope::currentSeq()
{
    return tls_seq;
}

std::string_view
FlightScope::currentLabel()
{
    return tls_label;
}

TraceSpan::TraceSpan(const char *name, const char *category)
    : _active(tls_seq != 0 ||
              FlightRecorder::global().recordsUnscoped())
{
    if (!_active)
        return;
    _record.name = name;
    _record.category = category;
    _record.seq = tls_seq;
    _start = std::chrono::steady_clock::now();
}

void
TraceSpan::arg(const char *key, std::string_view value)
{
    if (!_active)
        return;
    // Append "key\0value\0" in place, so recording never allocates;
    // an arg that does not fit is cut short or dropped.
    std::size_t pos = _record.argsLen;
    std::size_t room = sizeof(_record.args) - pos;
    std::size_t key_len = std::strlen(key);
    if (key_len + 2 > room)
        return;
    std::memcpy(_record.args + pos, key, key_len + 1);
    pos += key_len + 1;
    std::size_t value_len =
        std::min(value.size(), sizeof(_record.args) - pos - 1);
    std::memcpy(_record.args + pos, value.data(), value_len);
    _record.args[pos + value_len] = '\0';
    _record.argsLen =
        static_cast<std::uint16_t>(pos + value_len + 1);
}

void
TraceSpan::arg(const char *key, std::int64_t value)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), value);
    arg(key, std::string_view(buf, static_cast<std::size_t>(
                                       res.ptr - buf)));
}

TraceSpan::~TraceSpan()
{
    if (!_active)
        return;
    FlightRecorder &recorder = FlightRecorder::global();
    auto end = std::chrono::steady_clock::now();
    _record.startUs = recorder.sinceEpochUs(_start);
    _record.durUs =
        std::chrono::duration<double, std::micro>(end - _start)
            .count();
    recorder.push(_record);
}

} // namespace amos
