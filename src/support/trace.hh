/**
 * @file
 * Span recording: one recording path for per-request traces,
 * slowlog postmortems, flight dumps and the `--trace-out` Chrome
 * export.
 *
 * A TraceSpan that closes writes exactly one FlightRecord into the
 * calling thread's fixed-capacity ring. Which spans are recorded:
 *
 *  - Spans under a request scope. A FlightScope installs a request
 *    sequence number (and optionally a trace label) on the thread;
 *    parallelFor propagates it onto every helper it borrows. The
 *    serve layer opens one scope per request and harvests the
 *    request's records afterwards: into the response of a trace_id
 *    request (traceTreeFor) and into the postmortem of a slow or
 *    failed one (spanTreeFor).
 *  - With setRecordUnscoped(true) (the `--trace-out` switch), spans
 *    outside any scope too; toChromeJson() drains every resident
 *    record into Chrome trace-event JSON.
 *
 * Otherwise a TraceSpan is inert: one thread-local read and one
 * relaxed atomic load, cheap enough for every hot path.
 *
 * Rings overwrite their oldest records when full, so memory is
 * bounded by `threads x capacity` forever. Recording a span takes
 * one uncontended per-thread mutex and a fixed-size copy: names and
 * categories are string literals stored as pointers, args are packed
 * into an inline buffer — no allocation. bench_trace_overhead gates
 * the scoped-recording overhead at < 5%.
 *
 * Crash path: crashDump(fd) walks the rings without taking locks
 * and writes one line per record using only async-signal-safe
 * primitives (write(2), manual integer formatting), so a
 * SIGSEGV/SIGABRT handler can preserve the last moments of every
 * thread.
 */

#ifndef AMOS_SUPPORT_TRACE_HH
#define AMOS_SUPPORT_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hh"

namespace amos {

/**
 * Ring capacity the `--trace-out` switch raises every thread to
 * (before any span is recorded), so a trace file holds as many
 * spans per thread as it ever did.
 */
constexpr std::size_t kTraceOutSpansPerThread = 1 << 16;

/** One recorded span, compact enough to live in a preallocated ring. */
struct FlightRecord
{
    /// Span name/category — string literals owned by the program
    /// image (TraceSpan takes `const char *`), never freed.
    const char *name = nullptr;
    const char *category = nullptr;
    /// Request sequence number the span was recorded under (from
    /// FlightRecorder::beginRequest); 0 = no request scope.
    std::uint64_t seq = 0;
    /// Start offset from the recorder epoch / duration, microseconds.
    double startUs = 0.0;
    double durUs = 0.0;
    /// Dense per-process thread index (stable per thread).
    std::uint32_t tid = 0;
    /// Bytes of `args` in use.
    std::uint16_t argsLen = 0;
    /// Args as back-to-back "key\0value\0" pairs. 128 bytes hold the
    /// longest args the serve paths emit: serve.compile's full cache
    /// key plus queue_wait_ms (~122 bytes for a warm-started
    /// depthwise conv on a Xeon target). Longer args are truncated.
    char args[128];

    /** Visit every arg pair in insertion order: fn(key, value). */
    template <typename Fn>
    void
    forEachArg(Fn &&fn) const
    {
        // Bounded by argsLen, not by the NULs alone: a torn record
        // read by the lock-free crash dump must not run off the
        // buffer.
        const std::size_t len =
            argsLen < sizeof(args) ? argsLen : sizeof(args);
        auto field = [&](std::size_t from) {
            const void *nul = std::memchr(args + from, '\0', len - from);
            return std::string_view(
                args + from, nul ? static_cast<const char *>(nul) -
                                       (args + from)
                                 : len - from);
        };
        for (std::size_t pos = 0; pos < len;) {
            std::string_view key = field(pos);
            pos += key.size() + 1;
            if (pos >= len)
                break;
            std::string_view value = field(pos);
            pos += value.size() + 1;
            fn(key, value);
        }
    }

    /** "k=v k=v" rendering (slowlog postmortems, flight dumps). */
    std::string argString() const;
    /** {"k":"v",...} rendering (trace responses, Chrome export). */
    Json argObject() const;
};

/**
 * The process-wide recorder of FlightRecords (global()): one ring
 * per thread, registered on the thread's first record.
 */
class FlightRecorder
{
  public:
    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Allocate a request sequence number (monotonic, never 0).
     * Install it on the serving thread with a FlightScope so the
     * request's spans are attributed to it. While unscoped recording
     * is on, a non-empty label is kept for the Chrome export's
     * `trace_id` arg.
     */
    std::uint64_t beginRequest(std::string_view label = {});

    /**
     * Also record spans outside any request scope (`--trace-out`).
     * Ring overwrites while this is on are counted in the global
     * `trace.dropped_spans` metric: each one is a span the trace
     * file loses.
     */
    void setRecordUnscoped(bool on);
    bool
    recordsUnscoped() const
    {
        return _recordUnscoped.load(std::memory_order_relaxed);
    }

    /**
     * Per-thread ring capacity for subsequently *registered*
     * threads (existing rings keep their size).
     */
    void setCapacityPerThread(std::size_t capacity);
    std::size_t capacityPerThread() const;

    /** Append one record to the calling thread's ring. */
    void push(const FlightRecord &record);

    /**
     * Snapshot every record of one request across all rings,
     * sorted by start time (parents before children).
     */
    std::vector<FlightRecord> harvest(std::uint64_t seq) const;

    /**
     * Span tree of one request, nested by time containment:
     * {"flight_seq":N,"spans":[{name,cat,start_us,dur_us,
     * args:"k=v k=v",children:[...]}]} (slowlog postmortems).
     */
    Json spanTreeFor(std::uint64_t seq) const;

    /**
     * The same tree for a trace_id response, args as objects:
     * {"trace_id":..,"spans":[{name,cat,start_us,dur_us,
     * args:{..},children:[...]}]}.
     */
    Json traceTreeFor(std::uint64_t seq,
                      const std::string &traceId) const;

    /**
     * Everything currently held in the rings (all requests mixed),
     * as {"records":[..],"overwritten":N} sorted by start time. The
     * `flightdump` verb and `--flight-dump` write this to disk.
     */
    Json dumpJson() const;

    /**
     * Chrome trace-event JSON of every resident record:
     * {"traceEvents":[...],"displayTimeUnit":"ms"}, one complete
     * ("ph":"X") event per span. Load in Perfetto (ui.perfetto.dev)
     * or chrome://tracing.
     */
    Json toChromeJson() const;

    /** Records currently resident across all rings. */
    std::size_t recordCount() const;

    /** Total records ever overwritten by ring wrap-around. */
    std::uint64_t overwrittenCount() const;

    /** Drop every resident record (rings stay registered). */
    void clear();

    /**
     * Async-signal-safe dump of every ring to a file descriptor:
     * one `flight tid=<t> seq=<s> start_us=<..> dur_us=<..>
     * <name> [args]` line per record. Walks the rings WITHOUT
     * locking — a crashed thread may hold a ring mutex — so a
     * record being written concurrently can read torn; acceptable
     * for a best-effort postmortem. Only write(2) and stack
     * formatting, callable from SIGSEGV/SIGABRT handlers.
     */
    void crashDump(int fd) const noexcept;

    /** The process-wide recorder every TraceSpan records into. */
    static FlightRecorder &global();

    double
    sinceEpochUs(std::chrono::steady_clock::time_point tp) const
    {
        return std::chrono::duration<double, std::micro>(tp - _epoch)
            .count();
    }

  private:
    FlightRecorder();

    struct Ring
    {
        mutable std::mutex mutex;
        std::vector<FlightRecord> slots; // preallocated, fixed size
        std::size_t next = 0;            // next write position
        std::size_t used = 0;            // live records (<= size)
        std::uint32_t tid = 0;
    };

    Ring &threadRing();
    std::vector<FlightRecord> sorted(std::uint64_t seq,
                                     bool allSeqs) const;

    std::atomic<bool> _recordUnscoped{false};
    std::atomic<std::uint64_t> _nextSeq{1};
    std::atomic<std::uint64_t> _overwritten{0};
    std::atomic<std::size_t> _capacity;
    /// Global `trace.dropped_spans` counter, resolved once so the
    /// overwrite path never takes the registry lock.
    class MetricCounter *_dropCounter;

    mutable std::mutex _registryMutex;
    std::vector<std::shared_ptr<Ring>> _rings;
    std::uint32_t _nextTid = 0;
    /// Trace labels of requests begun while recording unscoped.
    std::map<std::uint64_t, std::string> _labels;

    std::chrono::steady_clock::time_point _epoch;
};

/**
 * RAII request scope: while alive, spans closing on this thread
 * (and on parallelFor helpers the thread fans out to) are recorded
 * under the given sequence number, and log lines carry the label as
 * `[trace=<label>]`. The label is not copied: it must outlive the
 * scope. Scopes nest; the innermost wins. Sequence number 0 records
 * nothing.
 */
class FlightScope
{
  public:
    explicit FlightScope(std::uint64_t seq,
                         std::string_view label = {});
    ~FlightScope();

    FlightScope(const FlightScope &) = delete;
    FlightScope &operator=(const FlightScope &) = delete;

    /** The active sequence number on this thread (0 when none). */
    static std::uint64_t currentSeq();
    /** The active trace label on this thread (empty when none). */
    static std::string_view currentLabel();

  private:
    std::uint64_t _previousSeq;
    std::string_view _previousLabel;
};

/**
 * RAII scoped span. Construct at the top of the region to measure;
 * the span is recorded (if recording is active) when it destructs.
 *
 *   TraceSpan span("mapping.enumerate", "mapping");
 *   span.arg("intrinsic", intr.name());
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name,
                       const char *category = "amos");
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Attach an annotation (no-op when the span is inactive). */
    void arg(const char *key, std::string_view value);
    void arg(const char *key, std::int64_t value);

    /** True when this span will be recorded. */
    bool active() const { return _active; }

  private:
    bool _active;
    /// The record under construction; pushed on destruction.
    FlightRecord _record;
    std::chrono::steady_clock::time_point _start;
};

} // namespace amos

#endif // AMOS_SUPPORT_TRACE_HH
