#include "service.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "report/explain.hh"
#include "report/prometheus.hh"
#include "support/atomic_file.hh"
#include "support/logging.hh"
#include "support/str_utils.hh"
#include "support/trace.hh"

#include <optional>

namespace amos {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     since)
        .count();
}

} // namespace

Json
ServeStats::toJson() const
{
    Json out = Json::object();
    auto u64 = [](std::uint64_t v) {
        return Json(static_cast<std::int64_t>(v));
    };
    out.set("requests", u64(requests));
    out.set("memory_hits", u64(memoryHits));
    out.set("disk_hits", u64(diskHits));
    out.set("compiles", u64(compiles));
    out.set("coalesced", u64(coalesced));
    out.set("rejected_queue_full", u64(rejectedQueueFull));
    out.set("deadline_exceeded", u64(deadlineExceeded));
    out.set("cancelled", u64(cancelled));
    out.set("failures", u64(failures));
    out.set("warmed_entries", u64(warmedEntries));
    out.set("slow_requests", u64(slowRequests));
    out.set("slowlog_recorded", u64(slowlogRecorded));
    Json latency = Json::object();
    latency.set("count", u64(latencyCount));
    latency.set("mean_ms", Json(meanMs));
    latency.set("p50_ms", Json(p50Ms));
    latency.set("p95_ms", Json(p95Ms));
    latency.set("p99_ms", Json(p99Ms));
    out.set("latency", std::move(latency));
    Json window = Json::object();
    window.set("count", u64(windowCount));
    window.set("p50_ms", Json(windowP50Ms));
    window.set("p95_ms", Json(windowP95Ms));
    window.set("p99_ms", Json(windowP99Ms));
    out.set("window", std::move(window));
    Json slo = Json::object();
    slo.set("slow_threshold_ms", Json(slowThresholdMs));
    slo.set("burn_rate", Json(sloBurnRate));
    out.set("slo", std::move(slo));
    Json unified = Json::object();
    for (const auto &[name, value] : metrics)
        unified.set(name, u64(value));
    out.set("metrics", std::move(unified));
    return out;
}

std::string
ServeStats::summary() const
{
    std::ostringstream out;
    out << "serve: req=" << requests << " hit_mem=" << memoryHits
        << " hit_disk=" << diskHits << " compiled=" << compiles
        << " coalesced=" << coalesced
        << " shed=" << rejectedQueueFull
        << " deadline=" << deadlineExceeded << " p50="
        << fmtDouble(p50Ms, 2) << "ms p95=" << fmtDouble(p95Ms, 2)
        << "ms p99=" << fmtDouble(p99Ms, 2) << "ms w_p99="
        << fmtDouble(windowP99Ms, 2) << "ms burn="
        << fmtDouble(sloBurnRate, 2) << " slow=" << slowRequests;
    return out.str();
}

Json
ServeOutcome::toJson(const std::string &id) const
{
    Json out = Json::object();
    if (!id.empty())
        out.set("id", Json(id));
    out.set("ok", Json(ok));
    out.set("latency_ms", Json(latencyMs));
    out.set("queue_wait_ms", Json(queueWaitMs));
    if (ok) {
        out.set("served_by", Json(servedBy));
        out.set("result", compileResultToJson(result));
        if (!trace.isNull())
            out.set("trace", trace);
        if (!explain.isNull())
            out.set("explain", explain);
    } else {
        Json err = Json::object();
        err.set("code", Json(errorCodeName(error)));
        err.set("message", Json(message));
        out.set("error", std::move(err));
    }
    return out;
}

/** One in-flight exploration shared by every coalesced waiter. */
struct CompileService::Job
{
    Job(std::string key_, CompileRequest request_,
        TensorComputation comp_, HardwareSpec hw_)
        : key(std::move(key_)), request(std::move(request_)),
          comp(std::move(comp_)), hw(std::move(hw_)),
          future(promise.get_future().share())
    {}

    std::string key;
    CompileRequest request;
    TensorComputation comp;
    HardwareSpec hw;

    /// Effective warm-start inputs, resolved at submit: the mode
    /// (request field or server default) and the model snapshot
    /// pinned for this exploration (a concurrent reload_model must
    /// not change a job mid-flight).
    WarmStartMode warmMode = WarmStartMode::Off;
    std::shared_ptr<const LearnedModel> model;

    /// Flight-recorder sequence of the request that created the job;
    /// runJob re-installs it so the exploration's spans land in the
    /// rings under it.
    std::uint64_t flightSeq = 0;
    /// When the job entered the pool queue (queue-wait measurement).
    std::chrono::steady_clock::time_point enqueued{};
    /// Written by the worker before the promise resolves; readable
    /// by waiters afterwards (promise/future synchronises).
    double queueWaitMs = 0.0;

    CancelToken token;
    /// Waiters still interested; the last one to abandon cancels.
    std::atomic<int> waiters{1};

    std::promise<ServeOutcome> promise;
    std::shared_future<ServeOutcome> future;
};

CompileService::CompileService(ServeOptions options)
    : _options(options),
      _requests(_metrics.counter("serve.requests")),
      _memoryHits(_metrics.counter("serve.memory_hits")),
      _diskHits(_metrics.counter("serve.disk_hits")),
      _compiles(_metrics.counter("serve.compiles")),
      _coalesced(_metrics.counter("serve.coalesced")),
      _rejectedQueueFull(
          _metrics.counter("serve.rejected_queue_full")),
      _deadlineExceeded(_metrics.counter("serve.deadline_exceeded")),
      _cancelled(_metrics.counter("serve.cancelled")),
      _failures(_metrics.counter("serve.failures")),
      _warmedEntries(_metrics.counter("serve.warmed_entries")),
      _slowRequests(_metrics.counter("serve.slow_requests")),
      _slowlogRecorded(_metrics.counter("serve.slowlog_recorded")),
      _inflightGauge(_metrics.gauge("serve.inflight")),
      _windowP99Gauge(_metrics.gauge("serve.window_p99_ms")),
      _slowThresholdGauge(
          _metrics.gauge("serve.slow_threshold_ms")),
      _sloBurnGauge(_metrics.gauge("serve.slo_burn_rate")),
      _warmSeeded(_metrics.counter("explore.warmstart_seeded")),
      _warmNeighbors(
          _metrics.counter("explore.warmstart_neighbors")),
      _modelReloads(_metrics.counter("explore.model_reloads")),
      _cache(options.cache, &_metrics),
      _pool(std::make_unique<ThreadPool>(
          ThreadPool::resolveThreads(
              static_cast<int>(options.workers))))
{
    if (_options.warmOnStart && _cache.hasDisk())
        _warmedEntries.add(_cache.warm());
    if (!_options.modelSnapshotPath.empty()) {
        auto loaded =
            LearnedModel::loadFile(_options.modelSnapshotPath);
        if (loaded) {
            _model = std::make_shared<const LearnedModel>(
                std::move(*loaded));
        } else {
            warn("serve: could not load model snapshot ",
                 _options.modelSnapshotPath,
                 "; starting with analytic screening");
        }
    }
    if (_options.statsLogPeriodMs > 0)
        _statsLogger = std::thread([this] { statsLoggerLoop(); });
    // Every serve.* and cache.* counter is registered by now; the
    // admission snapshot reads this fixed list with relaxed loads.
    _counterRefs = _metrics.counterRefs();
}

CompileService::~CompileService()
{
    drain();
}

void
CompileService::recordLatency(double ms)
{
    _latency.record(ms);
    _window.record(ms);
    // Keep the windowed SLO gauges fresh on the request path (not
    // at scrape time) so prometheusText() stays const and cheap.
    double threshold = slowThresholdMs();
    _windowP99Gauge.set(_window.windowQuantileMs(0.99));
    _slowThresholdGauge.set(threshold);
    _sloBurnGauge.set(
        threshold > 0
            ? _window.burnRate(threshold, _options.sloErrorBudget)
            : 0.0);
}

double
CompileService::slowThresholdMs() const
{
    if (_options.slowMs > 0)
        return _options.slowMs;
    // Adaptive: flag the outliers relative to recent behaviour, but
    // only once the window has enough samples that its p99 means
    // something; a floor keeps microsecond-scale replay jitter from
    // flooding the slowlog.
    if (_window.windowCount() < 50)
        return 0.0;
    return std::max(5.0, 2.0 * _window.windowQuantileMs(0.99));
}

void
CompileService::maybeRetain(const Ticket &ticket,
                            const ServeOutcome &outcome)
{
    double threshold = slowThresholdMs();
    const char *reason = nullptr;
    if (!outcome.ok) {
        switch (outcome.error) {
        case ErrorCode::QueueFull:
            reason = "shed";
            break;
        case ErrorCode::DeadlineExceeded:
            reason = "deadline";
            break;
        case ErrorCode::ShuttingDown:
            // The server is going away with the slowlog; a drain
            // rejection is not a request-level anomaly.
            return;
        default:
            reason = "error";
            break;
        }
    } else if (threshold > 0 && outcome.latencyMs > threshold) {
        reason = "slow";
    }
    if (reason == nullptr)
        return;

    if (std::strcmp(reason, "slow") == 0)
        _slowRequests.add();

    Json pm = Json::object();
    pm.set("flight_seq",
           Json(static_cast<std::int64_t>(ticket._flightSeq)));
    pm.set("id", Json(ticket._id));
    pm.set("reason", Json(reason));
    pm.set("latency_ms", Json(outcome.latencyMs));
    pm.set("queue_wait_ms", Json(outcome.queueWaitMs));
    pm.set("served_by", Json(outcome.servedBy));
    pm.set("slow_threshold_ms", Json(threshold));
    if (!outcome.ok) {
        Json err = Json::object();
        err.set("code", Json(errorCodeName(outcome.error)));
        err.set("message", Json(outcome.message));
        pm.set("error", std::move(err));
    }

    Json admission = Json::object();
    admission.set("inflight", Json(ticket._admission.inflight));
    admission.set("queue_depth",
                  Json(static_cast<std::int64_t>(
                      ticket._admission.queueDepth)));
    pm.set("admission", std::move(admission));

    // What the whole service did while this request was in it:
    // counters that moved between admission and now. A saturated
    // server shows up here as a big serve.requests delta; a cold
    // cache as cache.*_misses.
    Json delta = Json::object();
    for (std::size_t i = 0;
         i < _counterRefs.size() &&
         i < ticket._admission.counters.size();
         ++i) {
        std::uint64_t now = _counterRefs[i].second->value();
        std::uint64_t then = ticket._admission.counters[i];
        if (now > then)
            delta.set(_counterRefs[i].first,
                      Json(static_cast<std::int64_t>(now - then)));
    }
    pm.set("metrics_delta", std::move(delta));

    // The span tree is harvested *now*, after the outcome: that is
    // the tail-based part — every request was speculatively
    // recorded, only this one's records get promoted out of the
    // rings before they are overwritten.
    pm.set("trace",
           FlightRecorder::global().spanTreeFor(ticket._flightSeq));

    {
        std::lock_guard<std::mutex> lock(_slowlogMutex);
        _slowlog.push_back(std::move(pm));
        ++_slowlogTotal;
        while (_slowlog.size() > _options.slowlogSize &&
               !_slowlog.empty())
            _slowlog.pop_front();
    }
    _slowlogRecorded.add();
}

CompileService::Ticket
CompileService::submit(const CompileRequest &req)
{
    Ticket ticket;
    ticket._start = Clock::now();
    ticket._explain = req.explain;
    ticket._id = req.id;
    _requests.add();

    auto immediate = [&](ServeOutcome outcome) {
        outcome.latencyMs = elapsedMs(ticket._start);
        recordLatency(outcome.latencyMs);
        ticket._immediate = std::move(outcome);
        ticket._isImmediate = true;
        maybeRetain(ticket, ticket._immediate);
        return ticket;
    };

    // A draining service rejects everything, cache hits included:
    // "shutting_down" must be the unambiguous answer once drain()
    // was called, so clients fail over instead of lingering. This
    // check must precede the admission snapshot: after drain() the
    // worker pool is gone.
    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (_draining) {
            ServeOutcome outcome;
            outcome.error = ErrorCode::ShuttingDown;
            outcome.message = "service is draining";
            return immediate(std::move(outcome));
        }
        // Gauges at admission, for the postmortem: what the
        // request walked into. Read under the same critical section
        // as the draining check — once drain() completes the worker
        // pool is gone, and _draining turning true under this lock
        // is the only way that can happen.
        ticket._admission.inflight = _inflightGauge.value();
        ticket._admission.queueDepth = _pool->queueDepth();
    }

    // Speculative flight recording: every request gets a sequence
    // number and a scope covering its submit path (cache-hit replay
    // included); whether the records are kept is decided after the
    // outcome is known (maybeRetain). A trace_id request is always
    // retained: its response carries its tree.
    ticket._flightSeq =
        FlightRecorder::global().beginRequest(req.traceId);
    FlightScope flight_scope(ticket._flightSeq, req.traceId);

    ticket._admission.counters.reserve(_counterRefs.size());
    for (const auto &[name, counter] : _counterRefs)
        ticket._admission.counters.push_back(counter->value());

    // Resolve the request to compiler inputs; a bad op/hw/knob is a
    // typed rejection, not an exception escaping the server loop.
    std::optional<TensorComputation> comp;
    HardwareSpec spec;
    std::string key;
    WarmStartMode warm_mode = _options.warmStart;
    std::shared_ptr<const LearnedModel> model;
    try {
        comp = computationFromRequest(req);
        spec = hardwareFromRequest(req);
        if (!req.warmStart.empty()) {
            auto parsed = warmStartModeFromName(req.warmStart);
            expect(parsed.has_value(),
                   "unknown warm_start mode '", req.warmStart,
                   "' (off|neighbors|model|both)");
            warm_mode = *parsed;
        }
        if (warmStartUsesModel(warm_mode))
            model = modelSnapshot();
        std::ostringstream k;
        k << TuningCache::keyFor(*comp, spec) << "/g"
          << req.generations << "_s" << req.seed;
        // The effective warm-start inputs steer the search, so they
        // join the key: the mode, and (for model modes) the snapshot
        // content digest. Off keeps the historical key so persisted
        // caches stay valid.
        if (warm_mode != WarmStartMode::Off) {
            k << "/w" << warmStartModeName(warm_mode);
            if (model)
                k << "-m" << model->digest().substr(0, 8);
        }
        key = k.str();
    } catch (const std::exception &e) {
        ServeOutcome outcome;
        outcome.error = ErrorCode::BadRequest;
        outcome.message = e.what();
        return immediate(std::move(outcome));
    }

    if (req.deadlineMs > 0)
        ticket._deadline =
            ticket._start +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    req.deadlineMs));

    // Tier 1/2 fast path: replay the persisted plan — one simulator
    // run instead of an exploration.
    TieredCache::Tier tier;
    if (auto entry = _cache.get(key, &tier)) {
        bool from_memory = tier == TieredCache::Tier::Memory;
        std::optional<CompileResult> result;
        {
            TraceSpan span("serve.cache_hit", "serve");
            span.arg("tier", from_memory ? "memory" : "disk");
            result = replayCacheEntry(*entry, *comp, spec);
        }
        if (result) {
            ServeOutcome outcome;
            outcome.ok = true;
            outcome.result = std::move(*result);
            outcome.servedBy = from_memory ? "memory" : "disk";
            if (req.explain)
                outcome.explain =
                    report::explainToJson(report::explainResult(
                        outcome.result, *comp, spec));
            (from_memory ? _memoryHits : _diskHits).add();
            if (!req.traceId.empty())
                outcome.trace = FlightRecorder::global().traceTreeFor(
                    ticket._flightSeq, req.traceId);
            return immediate(std::move(outcome));
        }
        // Stale entry (e.g. hardware spec evolved): re-explore.
    }

    std::shared_ptr<Job> job;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (_draining) {
            ServeOutcome outcome;
            outcome.error = ErrorCode::ShuttingDown;
            outcome.message = "service is draining";
            return immediate(std::move(outcome));
        }
        auto it = _inflight.find(key);
        if (it != _inflight.end()) {
            // Coalesce: attach to the in-flight exploration. The
            // join may only ever extend the job's deadline.
            job = it->second;
            job->waiters.fetch_add(1, std::memory_order_relaxed);
            job->token.extendDeadline(ticket._deadline);
            _coalesced.add();
            // The joiner's postmortem should show the exploration
            // it actually waited on, not its own (span-free)
            // submit path.
            ticket._flightSeq = job->flightSeq;
            ticket._job = std::move(job);
            ticket._joiner = true;
            return ticket;
        }
        if (_inflight.size() >= _options.maxQueue) {
            _rejectedQueueFull.add();
            ServeOutcome outcome;
            outcome.error = ErrorCode::QueueFull;
            outcome.message =
                "admission bound of " +
                std::to_string(_options.maxQueue) +
                " in-flight explorations reached";
            return immediate(std::move(outcome));
        }
        job = std::make_shared<Job>(key, req, std::move(*comp),
                                    std::move(spec));
        job->warmMode = warm_mode;
        job->model = std::move(model);
        job->token.setDeadline(ticket._deadline);
        job->flightSeq = ticket._flightSeq;
        job->enqueued = Clock::now();
        _inflight[key] = job;
        _inflightGauge.set(static_cast<double>(_inflight.size()));
    }
    _pool->submit([this, job] { runJob(job); });
    ticket._job = std::move(job);
    return ticket;
}

void
CompileService::runJob(std::shared_ptr<Job> job)
{
    ServeOutcome outcome;
    const std::string &trace_id = job->request.traceId;
    // Satellite measurement: admission -> worker start. Everything
    // between is time the request spent waiting for a free worker.
    double queue_wait = elapsedMs(job->enqueued);
    _queueWait.record(queue_wait);
    outcome.queueWaitMs = queue_wait;
    // The request scope, re-installed on this worker: every span the
    // exploration records here (its parallelFor loops run inline on
    // this worker) lands under the originating request's sequence,
    // and every stderr line it logs carries its trace id.
    FlightScope flight_scope(job->flightSeq, trace_id);
    AMOS_LOG(Debug) << "compile start key=" << job->key;
    {
        TraceSpan span("serve.compile", "serve");
        span.arg("key", job->key);
        span.arg("queue_wait_ms", fmtDouble(queue_wait, 3));
        try {
            // A request whose deadline fired while queued never
            // starts.
            job->token.checkpoint("queued request");
            TuneOptions options =
                tuneOptionsFromRequest(job->request);
            options.cancel = &job->token;
            options.warmStart.mode = job->warmMode;
            options.warmStart.model = job->model;
            if (job->warmMode != WarmStartMode::Off)
                options.warmStart.patience = kWarmStartPatience;
            if (warmStartUsesNeighbors(job->warmMode))
                options.warmStart.seeds = nearestCachedSeeds(
                    _cache, job->key, job->comp, job->hw);
            Compiler compiler(job->hw, options);
            _compiles.add();
            auto result = compiler.compile(job->comp);
            _warmNeighbors.add(static_cast<std::uint64_t>(
                result.tuning.warmStartNeighbors));
            _warmSeeded.add(static_cast<std::uint64_t>(
                result.tuning.warmStartSeeded));
            if (auto entry = cacheEntryOf(result))
                _cache.put(job->key, *entry);
            outcome.ok = true;
            outcome.result = std::move(result);
            outcome.servedBy = "compile";
        } catch (const CancelledError &e) {
            outcome.error = job->token.deadlineExpired()
                                ? ErrorCode::DeadlineExceeded
                                : ErrorCode::Cancelled;
            outcome.message = e.what();
        } catch (const std::exception &e) {
            outcome.error = ErrorCode::Internal;
            outcome.message = e.what();
        }
    }
    // The root span has closed, so the tree is complete.
    if (outcome.ok && !trace_id.empty())
        outcome.trace = FlightRecorder::global().traceTreeFor(
            job->flightSeq, trace_id);
    // Publish to the cache *before* leaving the in-flight map (done
    // above), then deregister, then resolve the waiters: a racing
    // submit always finds the result either in flight or cached.
    if (outcome.ok)
        AMOS_LOG(Debug)
            << "compile done key=" << job->key
            << " cycles=" << outcome.result.cycles;
    else
        AMOS_LOG(Debug)
            << "compile failed key=" << job->key << " code="
            << errorCodeName(outcome.error) << ": "
            << outcome.message;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _inflight.erase(job->key);
        _inflightGauge.set(static_cast<double>(_inflight.size()));
    }
    job->promise.set_value(std::move(outcome));
    _idle.notify_all();
}

ServeOutcome
CompileService::wait(Ticket &ticket)
{
    if (ticket._isImmediate)
        return ticket._immediate;
    require(static_cast<bool>(ticket._job),
            "CompileService::wait on an empty ticket");
    auto job = ticket._job;

    if (ticket._deadline != Clock::time_point::max() &&
        job->future.wait_until(ticket._deadline) ==
            std::future_status::timeout) {
        if (!ticket._abandoned) {
            ticket._abandoned = true;
            // Last waiter out turns off the lights: cancel the
            // exploration nobody is listening to any more.
            if (job->waiters.fetch_sub(
                    1, std::memory_order_acq_rel) == 1)
                job->token.cancel();
        }
        _deadlineExceeded.add();
        ServeOutcome outcome;
        outcome.error = ErrorCode::DeadlineExceeded;
        outcome.message = "deadline of " +
                          fmtDouble(job->request.deadlineMs, 1) +
                          " ms exceeded";
        outcome.latencyMs = elapsedMs(ticket._start);
        recordLatency(outcome.latencyMs);
        // The exploration is still running; its spans recorded so
        // far are in the rings and the postmortem shows where the
        // deadline caught it.
        maybeRetain(ticket, outcome);
        return outcome;
    }

    ServeOutcome outcome = job->future.get();
    if (outcome.ok && ticket._joiner)
        outcome.servedBy = "coalesced";
    // Per-ticket output shaping: explain is built on the waiter's
    // copy, so a coalesced joiner that asked for it gets one even
    // when the originating request did not.
    if (outcome.ok && ticket._explain && outcome.explain.isNull())
        outcome.explain = report::explainToJson(
            report::explainResult(outcome.result, job->comp,
                                  job->hw));
    if (!outcome.ok) {
        switch (outcome.error) {
        case ErrorCode::DeadlineExceeded:
            _deadlineExceeded.add();
            break;
        case ErrorCode::Cancelled:
            _cancelled.add();
            break;
        default:
            _failures.add();
            break;
        }
    }
    outcome.latencyMs = elapsedMs(ticket._start);
    recordLatency(outcome.latencyMs);
    maybeRetain(ticket, outcome);
    return outcome;
}

ServeOutcome
CompileService::serve(const CompileRequest &req)
{
    auto ticket = submit(req);
    return wait(ticket);
}

ServeStats
CompileService::stats() const
{
    ServeStats out;
    out.requests = _requests.value();
    out.memoryHits = _memoryHits.value();
    out.diskHits = _diskHits.value();
    out.compiles = _compiles.value();
    out.coalesced = _coalesced.value();
    out.rejectedQueueFull = _rejectedQueueFull.value();
    out.deadlineExceeded = _deadlineExceeded.value();
    out.cancelled = _cancelled.value();
    out.failures = _failures.value();
    out.warmedEntries = _warmedEntries.value();
    out.slowRequests = _slowRequests.value();
    out.slowlogRecorded = _slowlogRecorded.value();
    out.metrics = _metrics.counterValues();
    out.latencyCount = _latency.count();
    out.meanMs = _latency.meanMs();
    out.p50Ms = _latency.quantileMs(0.50);
    out.p95Ms = _latency.quantileMs(0.95);
    out.p99Ms = _latency.quantileMs(0.99);
    out.windowCount = _window.windowCount();
    out.windowP50Ms = _window.windowQuantileMs(0.50);
    out.windowP95Ms = _window.windowQuantileMs(0.95);
    out.windowP99Ms = _window.windowQuantileMs(0.99);
    out.slowThresholdMs = slowThresholdMs();
    out.sloBurnRate =
        out.slowThresholdMs > 0
            ? _window.burnRate(out.slowThresholdMs,
                               _options.sloErrorBudget)
            : 0.0;
    return out;
}

std::string
CompileService::prometheusText() const
{
    return report::prometheusExposition(
        _metrics,
        {{"serve.latency_ms", &_latency},
         {"serve.queue_wait_ms", &_queueWait}},
        {{"serve.latency_ms_window", &_window}});
}

Json
CompileService::slowlogJson(std::size_t limit) const
{
    Json entries = Json::array();
    std::uint64_t total = 0;
    {
        std::lock_guard<std::mutex> lock(_slowlogMutex);
        total = _slowlogTotal;
        std::size_t want = limit == 0 ? _slowlog.size()
                                      : std::min(limit,
                                                 _slowlog.size());
        // Most recent first: the entry you want after "the server
        // just got slow" is at the top.
        for (std::size_t i = 0; i < want; ++i)
            entries.push(_slowlog[_slowlog.size() - 1 - i]);
    }
    Json out = Json::object();
    out.set("count", Json(static_cast<std::int64_t>(total)));
    out.set("postmortems", std::move(entries));
    return out;
}

Json
CompileService::flightDump(const std::string &path) const
{
    FlightRecorder &recorder = FlightRecorder::global();
    auto records = static_cast<std::int64_t>(recorder.recordCount());
    Json out = Json::object();
    try {
        writeFileAtomic(path, recorder.dumpJson().dump() + "\n");
    } catch (const std::exception &e) {
        out.set("ok", Json(false));
        out.set("error", Json(e.what()));
        return out;
    }
    out.set("ok", Json(true));
    out.set("path", Json(path));
    out.set("records", Json(records));
    return out;
}

Json
CompileService::reloadModel(const std::string &path)
{
    Json out = Json::object();
    out.set("path", Json(path));
    auto loaded = LearnedModel::loadFile(path);
    if (!loaded) {
        out.set("ok", Json(false));
        out.set("error",
                Json("cannot load model snapshot from " + path +
                     " (unreadable, unparseable, or wrong schema)"));
        return out;
    }
    auto model =
        std::make_shared<const LearnedModel>(std::move(*loaded));
    {
        std::lock_guard<std::mutex> lock(_modelMutex);
        _model = model;
    }
    _modelReloads.add();
    out.set("ok", Json(true));
    out.set("digest", Json(model->digest()));
    out.set("samples", Json(static_cast<std::int64_t>(
                           model->fittedSamples())));
    return out;
}

std::shared_ptr<const LearnedModel>
CompileService::modelSnapshot() const
{
    std::lock_guard<std::mutex> lock(_modelMutex);
    return _model;
}

bool
CompileService::draining() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _draining;
}

void
CompileService::drain()
{
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _draining = true;
        _idle.wait(lock, [this] { return _inflight.empty(); });
    }
    {
        std::lock_guard<std::mutex> lock(_loggerMutex);
        _loggerStop = true;
    }
    _loggerCv.notify_all();
    if (_statsLogger.joinable())
        _statsLogger.join();
    // Joining the pool here (not in ~CompileService) means drain()
    // returns only after every worker ran to completion.
    _pool.reset();
}

void
CompileService::statsLoggerLoop()
{
    auto period = std::chrono::duration<double, std::milli>(
        _options.statsLogPeriodMs);
    std::unique_lock<std::mutex> lock(_loggerMutex);
    for (;;) {
        if (_loggerCv.wait_for(
                lock,
                std::chrono::duration_cast<Clock::duration>(period),
                [this] { return _loggerStop; }))
            return;
        lock.unlock();
        inform(stats().summary());
        lock.lock();
    }
}

} // namespace serve
} // namespace amos
