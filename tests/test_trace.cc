/**
 * @file
 * Tests for the span recorder + metrics subsystem: span recording
 * and nesting, Chrome trace-event export, request scopes (including
 * propagation of the seq and trace label through parallelFor, into
 * spans and log lines), the per-thread rings (wrap-around, harvest,
 * span trees, dumps, the async-signal-safe crash dump), concurrency
 * under 16-thread hammers (run under TSan in CI), and the
 * MetricsRegistry.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "explore/tuner.hh"
#include "hw/hardware.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/thread_pool.hh"
#include "support/trace.hh"

using namespace amos;

namespace {

/** RAII guard: unscoped recording on for the test, clean slate
 *  around. */
struct GlobalTracing
{
    GlobalTracing()
    {
        FlightRecorder::global().clear();
        FlightRecorder::global().setRecordUnscoped(true);
    }
    ~GlobalTracing()
    {
        FlightRecorder::global().setRecordUnscoped(false);
        FlightRecorder::global().clear();
    }
};

FlightRecord
findSpan(const std::vector<FlightRecord> &spans, const std::string &name)
{
    for (const auto &span : spans)
        if (span.name == name)
            return span;
    ADD_FAILURE() << "span '" << name << "' not recorded";
    return {};
}

} // namespace

TEST(Trace, DisabledSpanRecordsNothing)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    ASSERT_FALSE(recorder.recordsUnscoped());
    {
        TraceSpan span("test.disabled", "test");
        EXPECT_FALSE(span.active());
        span.arg("ignored", std::string("value"));
    }
    EXPECT_EQ(recorder.recordCount(), 0u);
}

TEST(Trace, GlobalEnableRecordsSpansWithArgs)
{
    GlobalTracing guard;
    {
        TraceSpan span("test.outer", "test");
        EXPECT_TRUE(span.active());
        span.arg("key", std::string("value"));
        span.arg("count", static_cast<std::int64_t>(42));
    }
    auto spans = FlightRecorder::global().harvest(0);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_STREQ(spans[0].name, "test.outer");
    EXPECT_STREQ(spans[0].category, "test");
    EXPECT_EQ(spans[0].seq, 0u);
    Json args = spans[0].argObject();
    EXPECT_EQ(args.entries().size(), 2u);
    EXPECT_EQ(args.get("key").asString(), "value");
    EXPECT_EQ(args.get("count").asString(), "42");
    EXPECT_EQ(spans[0].argString(), "key=value count=42");
    EXPECT_GE(spans[0].durUs, 0.0);
}

TEST(Trace, NestedSpansAreTimeContained)
{
    GlobalTracing guard;
    {
        TraceSpan outer("test.outer", "test");
        {
            TraceSpan inner("test.inner", "test");
        }
    }
    auto spans = FlightRecorder::global().harvest(0);
    ASSERT_EQ(spans.size(), 2u);
    auto outer = findSpan(spans, "test.outer");
    auto inner = findSpan(spans, "test.inner");
    EXPECT_GE(inner.startUs, outer.startUs);
    EXPECT_LE(inner.startUs + inner.durUs,
              outer.startUs + outer.durUs + 1e-3);
}

TEST(Trace, ChromeJsonShape)
{
    GlobalTracing guard;
    {
        TraceSpan span("test.event", "test");
        span.arg("k", std::string("v"));
    }
    Json doc = FlightRecorder::global().toChromeJson();
    EXPECT_EQ(doc.get("displayTimeUnit").asString(), "ms");
    const Json &events = doc.get("traceEvents");
    ASSERT_EQ(events.size(), 1u);
    const Json &event = events.at(0);
    EXPECT_EQ(event.get("name").asString(), "test.event");
    EXPECT_EQ(event.get("cat").asString(), "test");
    EXPECT_EQ(event.get("ph").asString(), "X");
    EXPECT_TRUE(event.has("ts"));
    EXPECT_TRUE(event.has("dur"));
    EXPECT_TRUE(event.has("pid"));
    EXPECT_TRUE(event.has("tid"));
    EXPECT_EQ(event.get("args").get("k").asString(), "v");
    EXPECT_FALSE(event.get("args").has("trace_id"));
}

TEST(Trace, ChromeJsonCarriesTheTraceLabel)
{
    GlobalTracing guard;
    auto &recorder = FlightRecorder::global();
    const std::string label = "req-7";
    {
        FlightScope scope(recorder.beginRequest(label), label);
        TraceSpan span("test.labelled", "test");
    }
    const Json doc = recorder.toChromeJson();
    const Json &events = doc.get("traceEvents");
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events.at(0).get("args").get("trace_id").asString(),
              "req-7");
}

TEST(Trace, ContextRecordsWhileGlobalOff)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    ASSERT_FALSE(recorder.recordsUnscoped());
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq, "req-1");
        TraceSpan span("test.tagged", "test");
        EXPECT_TRUE(span.active());
    }
    {
        // Scope gone: back to the inert fast path.
        TraceSpan span("test.untagged", "test");
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(recorder.recordCount(), 1u);
    auto spans = recorder.harvest(seq);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_STREQ(spans[0].name, "test.tagged");
}

TEST(Trace, ContextsNestInnermostWins)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t outer_seq = recorder.beginRequest();
    const std::uint64_t inner_seq = recorder.beginRequest();
    FlightScope outer(outer_seq, "outer-id");
    EXPECT_EQ(FlightScope::currentLabel(), "outer-id");
    {
        FlightScope inner(inner_seq, "inner-id");
        EXPECT_EQ(FlightScope::currentSeq(), inner_seq);
        EXPECT_EQ(FlightScope::currentLabel(), "inner-id");
        TraceSpan span("test.inner", "test");
    }
    EXPECT_EQ(FlightScope::currentSeq(), outer_seq);
    EXPECT_EQ(FlightScope::currentLabel(), "outer-id");
    EXPECT_EQ(recorder.harvest(inner_seq).size(), 1u);
    EXPECT_TRUE(recorder.harvest(outer_seq).empty());
}

TEST(Trace, ContextPropagatesThroughParallelFor)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t seq = recorder.beginRequest();
    std::vector<std::string> labels(16);
    {
        FlightScope scope(seq, "fanout");
        parallelFor(
            16,
            [&](std::size_t i) {
                TraceSpan span("test.worker", "test");
                labels[i] = std::string(FlightScope::currentLabel());
            },
            4);
    }
    EXPECT_EQ(recorder.harvest(seq).size(), 16u);
    for (const auto &label : labels)
        EXPECT_EQ(label, "fanout");
}

/**
 * The `[trace=<id>]` log tag reads the request scope's label, so a
 * line logged by a parallelFor body on a pool worker is tagged like
 * one logged on the requesting thread.
 */
TEST(Trace, LogLinesInParallelForCarryTheTraceLabel)
{
    const std::uint64_t seq = FlightRecorder::global().beginRequest();
    testing::internal::CaptureStderr();
    {
        FlightScope scope(seq, "logged-req");
        parallelFor(
            16,
            [](std::size_t i) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                logMessage(LogLevel::Info,
                           "body " + std::to_string(i));
            },
            4);
    }
    logMessage(LogLevel::Info, "after the scope");
    std::string text = testing::internal::GetCapturedStderr();

    int bodies = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        std::string line = text.substr(pos, end - pos);
        pos = end == std::string::npos ? text.size() : end + 1;
        if (line.find(": body ") != std::string::npos) {
            ++bodies;
            EXPECT_NE(line.find("[trace=logged-req]"),
                      std::string::npos)
                << line;
        } else if (line.find("after the scope") != std::string::npos) {
            EXPECT_EQ(line.find("[trace="), std::string::npos) << line;
        }
    }
    EXPECT_EQ(bodies, 16);
}

TEST(Trace, SpanTreeNestsByTimeContainment)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq, "tree");
        TraceSpan root("test.root", "test");
        root.arg("k", std::string("v"));
        {
            TraceSpan childA("test.child_a", "test");
            {
                TraceSpan grand("test.grandchild", "test");
            }
        }
        {
            TraceSpan childB("test.child_b", "test");
        }
    }
    Json tree = recorder.traceTreeFor(seq, "tree");
    EXPECT_EQ(tree.get("trace_id").asString(), "tree");
    const Json &roots = tree.get("spans");
    ASSERT_EQ(roots.size(), 1u);
    const Json &root = roots.at(0);
    EXPECT_EQ(root.get("name").asString(), "test.root");
    // Trace responses render args as an object.
    EXPECT_EQ(root.get("args").get("k").asString(), "v");
    const Json &children = root.get("children");
    ASSERT_EQ(children.size(), 2u);
    EXPECT_EQ(children.at(0).get("name").asString(), "test.child_a");
    EXPECT_EQ(children.at(1).get("name").asString(), "test.child_b");
    const Json &grandchildren = children.at(0).get("children");
    ASSERT_EQ(grandchildren.size(), 1u);
    EXPECT_EQ(grandchildren.at(0).get("name").asString(),
              "test.grandchild");
}

/**
 * 16 threads hammering span creation and concurrent exports; run
 * under TSan in CI. Assertions are minimal on purpose — the test
 * exists to surface races, not behaviour.
 */
TEST(Trace, ConcurrentSpanHammer)
{
    GlobalTracing guard;
    const int kThreads = 16;
    const int kSpansPerThread = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                TraceSpan span("test.hammer", "test");
                span.arg("i", static_cast<std::int64_t>(i));
                if (i % 50 == 0) {
                    // Concurrent export while writers are active.
                    FlightRecorder::global().toChromeJson();
                    FlightRecorder::global().recordCount();
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    auto spans = FlightRecorder::global().harvest(0);
    EXPECT_EQ(spans.size(),
              static_cast<std::size_t>(kThreads * kSpansPerThread));
    // Thread ids must be distinct per thread.
    std::set<std::uint32_t> tids;
    for (const auto &span : spans)
        tids.insert(span.tid);
    EXPECT_GE(tids.size(), 2u);
}

/**
 * Acceptance: a traced tune emits the full pipeline span taxonomy
 * with enumerate/validate/sample/model-eval/measure correctly nested
 * under the tune root.
 */
TEST(Trace, TracedTuneEmitsPipelineSpans)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    auto hw = hw::v100();
    auto comp = ops::makeGemm(64, 64, 64);
    std::vector<MappingPlan> plans;
    for (const auto &intr : hw.intrinsics) {
        if (comp.inputs().size() != intr.compute.numSrcs() ||
            comp.combine() != intr.compute.combine())
            continue;
        for (auto &plan : enumeratePlans(comp, intr, {}))
            plans.push_back(std::move(plan));
    }
    ASSERT_FALSE(plans.empty());
    TuneOptions options;
    options.generations = 2;
    options.population = 8;
    options.measureTopK = 2;
    options.numThreads = 4;
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq, "tune-req");
        auto result = tuneWithPlans(plans, hw, options);
        ASSERT_TRUE(result.tensorizable);
    }
    std::set<std::string> names;
    for (const auto &span : recorder.harvest(seq))
        names.insert(span.name);
    for (const char *expected :
         {"explore.tune", "explore.generation", "explore.model_eval",
          "explore.measure", "schedule.sample", "schedule.expert",
          "sim.measure"})
        EXPECT_TRUE(names.count(expected))
            << "missing span " << expected;

    // The tree roots at explore.tune and contains a generation span
    // which in turn contains the model evaluation.
    Json tree = recorder.traceTreeFor(seq, "tune-req");
    const Json &roots = tree.get("spans");
    ASSERT_GE(roots.size(), 1u);
    EXPECT_EQ(roots.at(0).get("name").asString(), "explore.tune");
    bool found_gen = false;
    const Json &children = roots.at(0).get("children");
    for (std::size_t i = 0; i < children.size(); ++i) {
        if (children.at(i).get("name").asString() ==
            "explore.generation")
            found_gen = true;
    }
    EXPECT_TRUE(found_gen);
}

// ---------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------

TEST(Metrics, CounterCreateOnFirstUseAndStableReference)
{
    MetricsRegistry registry;
    MetricCounter &c1 = registry.counter("test.counter");
    EXPECT_EQ(c1.value(), 0u);
    c1.add();
    c1.add(10);
    MetricCounter &c2 = registry.counter("test.counter");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2.value(), 11u);
}

TEST(Metrics, GaugeLastWriteWins)
{
    MetricsRegistry registry;
    MetricGauge &g = registry.gauge("test.gauge");
    g.set(1.5);
    g.set(2.5);
    EXPECT_DOUBLE_EQ(registry.gauge("test.gauge").value(), 2.5);
}

TEST(Metrics, SnapshotsAndJson)
{
    MetricsRegistry registry;
    registry.counter("a.count").add(3);
    registry.counter("b.count").add(7);
    registry.gauge("c.gauge").set(0.25);

    auto counters = registry.counterValues();
    ASSERT_EQ(counters.size(), 2u);
    EXPECT_EQ(counters.at("a.count"), 3u);
    EXPECT_EQ(counters.at("b.count"), 7u);
    auto gauges = registry.gaugeValues();
    ASSERT_EQ(gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(gauges.at("c.gauge"), 0.25);

    Json doc = registry.toJson();
    EXPECT_EQ(doc.get("a.count").asInt(), 3);
    EXPECT_EQ(doc.get("b.count").asInt(), 7);
    EXPECT_DOUBLE_EQ(doc.get("c.gauge").asNumber(), 0.25);
}

TEST(Metrics, ConcurrentCountersAreExact)
{
    MetricsRegistry registry;
    const int kThreads = 16;
    const int kAdds = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry] {
            // Mix creation races and hot-path increments.
            auto &counter = registry.counter("contended");
            for (int i = 0; i < kAdds; ++i)
                counter.add();
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(registry.counter("contended").value(),
              static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Metrics, InstanceRegistriesAreIndependent)
{
    MetricsRegistry a;
    MetricsRegistry b;
    a.counter("x").add(5);
    EXPECT_EQ(b.counter("x").value(), 0u);
}

TEST(Flight, SpansOutsideAScopeRecordNothing)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    ASSERT_FALSE(recorder.recordsUnscoped());
    ASSERT_EQ(FlightScope::currentSeq(), 0u);
    {
        TraceSpan span("test.unscoped", "test");
        // No scope, unscoped recording off: the span is fully inert.
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(recorder.recordCount(), 0u);
}

TEST(Flight, ScopedSpansCarrySeqAndArgs)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t seq = recorder.beginRequest();
    ASSERT_NE(seq, 0u);
    {
        FlightScope scope(seq);
        EXPECT_EQ(FlightScope::currentSeq(), seq);
        TraceSpan span("test.scoped", "test");
        EXPECT_TRUE(span.active());
        span.arg("key", std::string("value"));
        span.arg("count", static_cast<std::int64_t>(7));
    }
    EXPECT_EQ(FlightScope::currentSeq(), 0u);

    auto records = recorder.harvest(seq);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_STREQ(records[0].name, "test.scoped");
    EXPECT_STREQ(records[0].category, "test");
    EXPECT_EQ(records[0].seq, seq);
    EXPECT_EQ(records[0].argString(), "key=value count=7");
    // A different request's harvest stays empty.
    EXPECT_TRUE(recorder.harvest(seq + 1).empty());
}

TEST(Flight, SeqZeroScopeRecordsNothing)
{
    // "Off" is the absence of a scope: a seq-0 scope masks an
    // enclosing request scope.
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq);
        FlightScope off(0);
        TraceSpan span("test.dark", "test");
        EXPECT_FALSE(span.active());
    }
    EXPECT_TRUE(recorder.harvest(seq).empty());
    EXPECT_EQ(recorder.recordCount(), 0u);
}

TEST(Flight, LongArgsAreTruncatedInPlace)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t seq = recorder.beginRequest();
    const std::string longValue(300, 'x');
    {
        FlightScope scope(seq);
        TraceSpan span("test.long", "test");
        span.arg("a", std::string("1"));
        span.arg("big", longValue);
        span.arg("late", std::string("dropped"));
    }
    auto records = recorder.harvest(seq);
    ASSERT_EQ(records.size(), 1u);
    Json args = records[0].argObject();
    EXPECT_EQ(args.get("a").asString(), "1");
    // "a\0" "1\0" "big\0" leave 120 bytes: 119 chars plus the NUL.
    EXPECT_EQ(args.get("big").asString(), std::string(119, 'x'));
    EXPECT_FALSE(args.has("late"));
}

TEST(Flight, RingOverwritesOldestWhenFull)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::size_t prev_cap = recorder.capacityPerThread();
    recorder.setCapacityPerThread(8);
    const std::uint64_t before = recorder.overwrittenCount();
    const std::uint64_t seq = recorder.beginRequest();

    // Existing rings keep their size; a fresh thread registers a
    // ring at the shrunk capacity.
    std::thread worker([&] {
        FlightScope scope(seq);
        for (int i = 0; i < 20; ++i)
            TraceSpan span("test.wrap", "test");
    });
    worker.join();
    recorder.setCapacityPerThread(prev_cap);

    auto records = recorder.harvest(seq);
    EXPECT_EQ(records.size(), 8u);
    EXPECT_EQ(recorder.overwrittenCount() - before, 12u);
}

TEST(Flight, ScopePropagatesThroughParallelFor)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq);
        parallelFor(
            16,
            [](std::size_t) {
                TraceSpan span("test.shard", "test");
            },
            4);
    }
    auto records = recorder.harvest(seq);
    EXPECT_EQ(records.size(), 16u);
    for (const auto &record : records)
        EXPECT_EQ(record.seq, seq);
}

TEST(Flight, SpanTreeNestsByTimeContainment)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq);
        TraceSpan outer("test.outer", "test");
        outer.arg("k", std::string("v"));
        {
            TraceSpan inner("test.inner", "test");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Json tree = recorder.spanTreeFor(seq);
    EXPECT_EQ(tree.get("flight_seq").asInt(),
              static_cast<std::int64_t>(seq));
    const Json &spans = tree.get("spans");
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans.at(0).get("name").asString(), "test.outer");
    // Postmortems render args as one "k=v k=v" string.
    EXPECT_EQ(spans.at(0).get("args").asString(), "k=v");
    const Json &children = spans.at(0).get("children");
    ASSERT_EQ(children.size(), 1u);
    EXPECT_EQ(children.at(0).get("name").asString(), "test.inner");
    EXPECT_GE(spans.at(0).get("dur_us").asNumber(),
              children.at(0).get("dur_us").asNumber());
}

TEST(Flight, CrashDumpIsPlainTextOverAFd)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq);
        TraceSpan span("test.crash", "test");
        span.arg("key", std::string("v"));
        span.arg("n", static_cast<std::int64_t>(3));
    }

    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    recorder.crashDump(::fileno(tmp));
    std::fflush(tmp);
    std::rewind(tmp);
    std::string text;
    char buf[256];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, tmp)) > 0)
        text.append(buf, n);
    std::fclose(tmp);

    EXPECT_NE(text.find("=== amos flight recorder dump ==="),
              std::string::npos);
    EXPECT_NE(text.find("test.crash [key=v n=3]"), std::string::npos);
    EXPECT_NE(text.find("seq="), std::string::npos);
}

TEST(Flight, DumpJsonListsEveryResidentRecord)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const std::uint64_t overwritten = recorder.overwrittenCount();
    const std::uint64_t a = recorder.beginRequest();
    const std::uint64_t b = recorder.beginRequest();
    {
        FlightScope scope(a);
        TraceSpan span("test.first", "test");
    }
    {
        FlightScope scope(b);
        TraceSpan span("test.second", "test");
    }
    Json dump = recorder.dumpJson();
    const Json &records = dump.get("records");
    ASSERT_EQ(records.size(), 2u);
    // Sorted by start time: first request first.
    EXPECT_EQ(records.at(0).get("name").asString(), "test.first");
    EXPECT_EQ(records.at(1).get("name").asString(), "test.second");
    EXPECT_EQ(records.at(0).get("seq").asInt(),
              static_cast<std::int64_t>(a));
    EXPECT_EQ(dump.get("overwritten").asInt(),
              static_cast<std::int64_t>(overwritten));
}

TEST(Flight, ConcurrentScopesAndHarvestsSurviveHammer)
{
    auto &recorder = FlightRecorder::global();
    recorder.clear();
    const int kThreads = 16;
    const int kSpansPerThread = 200;
    std::vector<std::uint64_t> seqs(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        seqs[t] = recorder.beginRequest();
        threads.emplace_back([&, t] {
            FlightScope scope(seqs[t]);
            for (int i = 0; i < kSpansPerThread; ++i) {
                TraceSpan span("test.hammer", "test");
                if (i % 64 == 0) // concurrent readers race writers
                    recorder.harvest(seqs[t]);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(recorder.harvest(seqs[t]).size(),
                  static_cast<std::size_t>(kSpansPerThread));
    recorder.clear();
    EXPECT_EQ(recorder.recordCount(), 0u);
}

TEST(Trace, SpanCapDropsAndCountsOverflow)
{
    // A --trace-out ring that wraps loses its oldest spans; each
    // loss is counted in trace.dropped_spans.
    GlobalTracing guard;
    auto &recorder = FlightRecorder::global();
    const std::size_t prev_cap = recorder.capacityPerThread();
    const std::uint64_t counter_before =
        MetricsRegistry::global()
            .counter("trace.dropped_spans")
            .value();

    recorder.setCapacityPerThread(10);
    std::thread worker([] {
        for (int i = 0; i < 50; ++i)
            TraceSpan span("test.capped", "test");
    });
    worker.join();
    recorder.setCapacityPerThread(prev_cap);

    EXPECT_EQ(recorder.harvest(0).size(), 10u);
    EXPECT_EQ(MetricsRegistry::global()
                      .counter("trace.dropped_spans")
                      .value() -
                  counter_before,
              40u);
}
