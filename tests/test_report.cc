/**
 * @file
 * Tests for the explainability layer: cycle attribution arithmetic
 * (buckets sum to the model's total, one dominant verdict), golden
 * bottleneck classifications on known workloads (bandwidth-starved
 * GEMV vs compute-bound GEMM), roofline coordinates, explain-report
 * JSON schema and round-trip, search-telemetry invariants, the CSV
 * serialiser, and the Prometheus text exposition self-check.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "amos/amos.hh"
#include "explore/trace_io.hh"
#include "ops/operators.hh"
#include "report/explain.hh"
#include "report/prometheus.hh"
#include "serve/tiered_cache.hh"
#include "support/histogram.hh"
#include "support/metrics.hh"

namespace amos {
namespace {

using report::attributeCycles;
using report::Bottleneck;
using report::bottleneckName;
using report::ExplainReport;
using report::explainResult;
using report::explainToJson;
using report::explainToText;

/** Tune options small enough for unit tests, deterministic seed. */
TuneOptions
fastTuning()
{
    TuneOptions options;
    options.population = 16;
    options.generations = 3;
    options.measureTopK = 4;
    options.seed = 2022;
    options.numThreads = 1;
    return options;
}

ExplainReport
compileAndExplain(const TensorComputation &comp,
                  const HardwareSpec &hw)
{
    Compiler compiler(hw, fastTuning());
    auto result = compiler.compile(comp);
    return explainResult(result, comp, hw);
}

double
bucketSum(const report::CycleAttribution &a)
{
    return a.computeCycles + a.sharedReadCycles +
           a.globalReadCycles + a.globalWriteCycles;
}

TEST(Attribution, BandwidthStarvedEstimateIsReadBound)
{
    ModelEstimate est;
    est.computeBlock = 100.0;
    est.readGlobal = 800.0;
    est.writeGlobal = 100.0;
    est.computeWarp = 30.0;
    est.readShared = 70.0;
    est.totalCycles = 2000.0;

    auto a = attributeCycles(est);
    // compute share 100/1000 split 30/70 across the warp terms.
    EXPECT_DOUBLE_EQ(a.computeCycles, 60.0);
    EXPECT_DOUBLE_EQ(a.sharedReadCycles, 140.0);
    EXPECT_DOUBLE_EQ(a.globalReadCycles, 1600.0);
    EXPECT_DOUBLE_EQ(a.globalWriteCycles, 200.0);
    EXPECT_DOUBLE_EQ(bucketSum(a), est.totalCycles);
    EXPECT_EQ(a.bottleneck, Bottleneck::GlobalRead);
    EXPECT_DOUBLE_EQ(a.dominance, 0.8);
}

TEST(Attribution, ComputeHeavyEstimateIsComputeBound)
{
    ModelEstimate est;
    est.computeBlock = 800.0;
    est.readGlobal = 150.0;
    est.writeGlobal = 50.0;
    est.computeWarp = 90.0;
    est.readShared = 10.0;
    est.totalCycles = 5000.0;

    auto a = attributeCycles(est);
    EXPECT_DOUBLE_EQ(a.computeCycles, 5000.0 * 0.8 * 0.9);
    EXPECT_DOUBLE_EQ(bucketSum(a), est.totalCycles);
    EXPECT_EQ(a.bottleneck, Bottleneck::Compute);
}

TEST(Attribution, DegenerateEstimateDefaultsToCompute)
{
    ModelEstimate est; // all terms zero
    auto a = attributeCycles(est);
    EXPECT_EQ(a.bottleneck, Bottleneck::Compute);
    EXPECT_DOUBLE_EQ(a.dominance, 1.0);
    EXPECT_DOUBLE_EQ(bucketSum(a), 0.0);
}

TEST(Attribution, WireNamesAreStable)
{
    EXPECT_STREQ(bottleneckName(Bottleneck::Compute), "compute");
    EXPECT_STREQ(bottleneckName(Bottleneck::SharedRead),
                 "shared_read");
    EXPECT_STREQ(bottleneckName(Bottleneck::GlobalRead),
                 "global_read");
    EXPECT_STREQ(bottleneckName(Bottleneck::GlobalWrite),
                 "global_write");
}

TEST(Roofline, CoordinatesFollowTheProfile)
{
    KernelProfile prof;
    prof.numBlocks = 10;
    prof.globalLoadBytesPerBlock = 800;
    prof.globalStoreBytesPerBlock = 200;
    prof.usefulOps = 100000;

    auto hw = hw::v100();
    auto r = report::rooflinePoint(prof, hw, 50.0);
    EXPECT_DOUBLE_EQ(r.operationalIntensity, 10.0);
    EXPECT_DOUBLE_EQ(r.attainedOpsPerCycle, 2000.0);
    EXPECT_DOUBLE_EQ(r.peakOpsPerCycle, hw.peakOpsPerCycle());
    EXPECT_DOUBLE_EQ(r.bandwidthOpsPerCycle,
                     10.0 * hw.global.readBytesPerCycle);
    EXPECT_DOUBLE_EQ(r.ridgeIntensity,
                     hw.peakOpsPerCycle() /
                         hw.global.readBytesPerCycle);
    EXPECT_EQ(r.memoryBound,
              r.operationalIntensity < r.ridgeIntensity);
}

TEST(GoldenWorkloads, GemvOnV100IsReadBound)
{
    // A 256x256 GEMV streams its matrix once: ~2 flops per loaded
    // element, far left of the V100 ridge.
    auto rep = compileAndExplain(ops::makeGemv(256, 256),
                                 hw::v100());
    ASSERT_TRUE(rep.tensorized);
    ASSERT_FALSE(rep.candidates.empty());
    const auto &winner = rep.candidates.front();
    EXPECT_TRUE(winner.attribution.bottleneck ==
                    Bottleneck::SharedRead ||
                winner.attribution.bottleneck ==
                    Bottleneck::GlobalRead)
        << "gemv classified "
        << bottleneckName(winner.attribution.bottleneck);
    EXPECT_TRUE(winner.roofline.memoryBound);
}

TEST(GoldenWorkloads, GemmOnXeonIsComputeBound)
{
    // On the AVX-512 target the FMA peak is modest relative to the
    // modelled cache bandwidth, so a square GEMM lands compute-bound.
    // The VNNI intrinsic is int8, so the workload is the quantized
    // u8xi8 GEMM.
    auto rep = compileAndExplain(ops::makeQuantizedGemm(64, 64, 64),
                                 hw::xeonSilver4110());
    ASSERT_TRUE(rep.tensorized);
    ASSERT_FALSE(rep.candidates.empty());
    EXPECT_EQ(rep.candidates.front().attribution.bottleneck,
              Bottleneck::Compute);
}

TEST(ExplainReport, AttributionSumsToModelTotalOnRealWinner)
{
    auto rep = compileAndExplain(ops::makeGemv(256, 256),
                                 hw::v100());
    ASSERT_FALSE(rep.candidates.empty());
    for (const auto &cand : rep.candidates) {
        const auto &a = cand.attribution;
        ASSERT_GT(a.totalCycles, 0.0);
        EXPECT_NEAR(bucketSum(a), a.totalCycles,
                    1e-9 * a.totalCycles);
        EXPECT_GE(a.dominance, 0.25); // argmax of four buckets
        EXPECT_LE(a.dominance, 1.0);
        ASSERT_EQ(cand.levels.size(), 2u);
        EXPECT_EQ(cand.levels[0].level, "warp");
        EXPECT_EQ(cand.levels[1].level, "block");
    }
}

TEST(ExplainReport, TelemetryCoversEveryGeneration)
{
    auto hw = hw::v100();
    auto comp = ops::makeGemm(64, 64, 64);
    Compiler compiler(hw, fastTuning());
    auto result = compiler.compile(comp);
    auto rep = explainResult(result, comp, hw);

    // One row per GA generation at minimum; exploit rows follow.
    int search_rows = 0;
    for (const auto &row : rep.telemetry) {
        if (row.phase == "search")
            ++search_rows;
        else
            EXPECT_EQ(row.phase, "exploit");
        EXPECT_GT(row.populationSize, 0);
        EXPECT_GE(row.distinctGenomes, row.distinctMappings > 0
                                           ? std::size_t{1}
                                           : std::size_t{0});
        EXPECT_GE(row.measuredNew, 0);
        EXPECT_GE(row.measuredReused, 0);
    }
    EXPECT_GE(search_rows, fastTuning().generations);

    // The incumbent series never worsens within the search phase.
    double best = 0.0;
    for (const auto &row : rep.telemetry) {
        if (row.phase != "search" || row.bestMeasuredCycles <= 0)
            continue;
        if (best > 0) {
            EXPECT_LE(row.bestMeasuredCycles, best * (1 + 1e-12));
        }
        best = row.bestMeasuredCycles;
    }
}

TEST(ExplainReport, TelemetryIsThreadCountInvariant)
{
    auto hw = hw::v100();
    auto comp = ops::makeGemm(64, 64, 64);
    TuneOptions serial = fastTuning();
    TuneOptions parallel = fastTuning();
    parallel.numThreads = 4;

    auto a = tune(comp, hw, serial);
    auto b = tune(comp, hw, parallel);
    ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
    for (std::size_t i = 0; i < a.telemetry.size(); ++i) {
        const auto &ra = a.telemetry[i];
        const auto &rb = b.telemetry[i];
        EXPECT_EQ(ra.generation, rb.generation);
        EXPECT_EQ(ra.phase, rb.phase);
        EXPECT_EQ(ra.populationSize, rb.populationSize);
        EXPECT_EQ(ra.distinctMappings, rb.distinctMappings);
        EXPECT_EQ(ra.distinctGenomes, rb.distinctGenomes);
        EXPECT_EQ(ra.measuredNew, rb.measuredNew);
        EXPECT_EQ(ra.measuredReused, rb.measuredReused);
        EXPECT_DOUBLE_EQ(ra.bestMeasuredCycles,
                         rb.bestMeasuredCycles);
        EXPECT_DOUBLE_EQ(ra.meanMeasuredCycles,
                         rb.meanMeasuredCycles);
    }
}

TEST(ExplainReport, JsonSchemaAndRoundTrip)
{
    auto hw = hw::v100();
    auto comp = ops::makeGemm(64, 64, 64);
    Compiler compiler(hw, fastTuning());
    auto result = compiler.compile(comp);
    auto rep = explainResult(result, comp, hw);
    Json json = explainToJson(rep);

    for (const char *key :
         {"workload", "hardware", "flops", "tensorized", "cycles",
          "milliseconds", "gflops", "mappings_explored",
          "measurements", "winner", "runners_up",
          "model_agreement", "telemetry"})
        EXPECT_TRUE(json.has(key)) << "missing key " << key;

    const Json &winner = json.get("winner");
    EXPECT_TRUE(winner.has("attribution"));
    EXPECT_TRUE(winner.has("levels"));
    EXPECT_TRUE(winner.has("roofline"));
    const Json &attr = winner.get("attribution");
    std::set<std::string> verdicts{"compute", "shared_read",
                                   "global_read", "global_write"};
    EXPECT_EQ(verdicts.count(
                  attr.get("bottleneck").asString()),
              1u);
    EXPECT_EQ(json.get("telemetry").size(), rep.telemetry.size());

    // Round-trip through the writer+parser preserves everything the
    // CI smoke and dashboards read.
    Json reparsed = Json::parse(json.dump());
    EXPECT_EQ(reparsed.dump(), json.dump());
    EXPECT_EQ(reparsed.get("workload").asString(), rep.workload);
    EXPECT_NEAR(reparsed.get("cycles").asNumber(), rep.cycles,
                1e-9 * rep.cycles);
    EXPECT_EQ(reparsed.get("winner")
                  .get("attribution")
                  .get("bottleneck")
                  .asString(),
              bottleneckName(rep.candidates.front()
                                 .attribution.bottleneck));
}

TEST(ExplainReport, TextReportNamesTheVerdict)
{
    auto rep = compileAndExplain(ops::makeGemv(256, 256),
                                 hw::v100());
    auto text = explainToText(rep);
    EXPECT_NE(text.find("## Verdict"), std::string::npos);
    EXPECT_NE(text.find("-bound"), std::string::npos);
    EXPECT_NE(text.find("## Cycle attribution"),
              std::string::npos);
    EXPECT_NE(text.find("## Roofline"), std::string::npos);
    EXPECT_NE(text.find("## Search telemetry"), std::string::npos);
}

TEST(ExplainReport, ScalarFallbackExplainsItself)
{
    // A result that fell back to scalar code has no winner to
    // attribute; the report must say so instead of crashing.
    auto comp = ops::makeGemm(64, 64, 64);
    CompileResult result; // tensorized = false, no tuning outcome
    result.cycles = 1234.0;
    result.milliseconds = 0.001;
    auto rep = explainResult(result, comp, hw::v100());
    EXPECT_FALSE(rep.tensorized);
    EXPECT_TRUE(rep.candidates.empty());
    Json json = explainToJson(rep);
    EXPECT_FALSE(json.has("winner"));
    auto text = explainToText(rep);
    EXPECT_NE(text.find("not tensorized"), std::string::npos);
}

TEST(ExplainReport, CacheReplayCarriesAWinner)
{
    auto hw = hw::v100();
    auto comp = ops::makeGemm(64, 64, 64);
    Compiler compiler(hw, fastTuning());
    serve::TieredCache cache(serve::TieredCache::Options{});
    auto first = serve::compileWithCache(compiler, comp, cache);
    ASSERT_TRUE(first.tensorized);
    auto replay = serve::compileWithCache(compiler, comp, cache);
    ASSERT_TRUE(replay.tensorized);
    ASSERT_TRUE(replay.tuning.bestPlan.has_value());

    auto rep = explainResult(replay, comp, hw);
    ASSERT_FALSE(rep.candidates.empty());
    EXPECT_EQ(rep.candidates.front().role, "winner");
    EXPECT_GT(rep.candidates.front().attribution.totalCycles, 0.0);
    // No search ran, so there is no telemetry to report.
    EXPECT_TRUE(rep.telemetry.empty());
}

TEST(TelemetryCsv, HeaderAndRowsMatch)
{
    GenerationTelemetry row;
    row.generation = 2;
    row.phase = "exploit";
    row.populationSize = 16;
    row.distinctMappings = 3;
    row.distinctGenomes = 12;
    row.measuredNew = 4;
    row.measuredReused = 7;
    auto csv = telemetryToCsv({row});
    std::istringstream lines(csv);
    std::string header, data;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_EQ(header,
              "generation,phase,population,distinct_mappings,"
              "distinct_genomes,measured_new,measured_reused,"
              "best_predicted,mean_predicted,best_measured,"
              "mean_measured");
    ASSERT_TRUE(std::getline(lines, data));
    EXPECT_EQ(data.substr(0, 20), "2,exploit,16,3,12,4,");
}

TEST(Prometheus, NamesAreSanitised)
{
    EXPECT_EQ(report::prometheusName("serve.requests"),
              "amos_serve_requests");
    EXPECT_EQ(report::prometheusName("cache.memory-hits"),
              "amos_cache_memory_hits");
    EXPECT_EQ(report::prometheusName("latency ms"),
              "amos_latency_ms");
}

TEST(Prometheus, ExpositionCarriesTypedSeries)
{
    MetricsRegistry registry;
    registry.counter("serve.requests").add(41);
    registry.counter("serve.requests").add(1);
    registry.gauge("serve.inflight").set(3.0);
    LatencyHistogram latency;
    latency.record(1.0);
    latency.record(2.0);
    latency.record(3.0);

    auto text = report::prometheusExposition(
        registry, {{"serve.latency_ms", &latency}});

    EXPECT_NE(text.find("# TYPE amos_serve_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("amos_serve_requests_total 42"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE amos_serve_inflight gauge"),
              std::string::npos);
    EXPECT_NE(text.find("amos_serve_inflight 3"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE amos_serve_latency_ms summary"),
              std::string::npos);
    EXPECT_NE(text.find("amos_serve_latency_ms{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("amos_serve_latency_ms_count 3"),
              std::string::npos);
    EXPECT_NE(text.find("amos_serve_latency_ms_sum 6"),
              std::string::npos);

    // Every line is a comment or `<name>[{labels}] <value>`.
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        if (line[0] == '#')
            continue;
        auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_EQ(line.rfind("amos_", 0), 0u) << line;
        EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
    }
}

TEST(Prometheus, EmptyRegistryRendersNothing)
{
    MetricsRegistry registry;
    EXPECT_EQ(report::prometheusExposition(registry), "");
}

TEST(Prometheus, CollidingCounterNamesMergeIntoOneFamily)
{
    // "a.b" and "a_b" both sanitise to amos_a_b_total; emitting the
    // family twice would be invalid exposition, so the values sum
    // and the HELP line names every source.
    MetricsRegistry registry;
    registry.counter("a.b").add(3);
    registry.counter("a_b").add(4);
    EXPECT_EQ(report::prometheusExposition(registry),
              "# HELP amos_a_b_total AMOS counter a.b + a_b\n"
              "# TYPE amos_a_b_total counter\n"
              "amos_a_b_total 7\n");
}

TEST(Prometheus, CollidingGaugeNamesLastWins)
{
    // Gauges cannot be summed; the lexicographically-last dotted
    // name deterministically wins.
    MetricsRegistry registry;
    registry.gauge("g.x").set(1.0);
    registry.gauge("g_x").set(2.0);
    EXPECT_EQ(report::prometheusExposition(registry),
              "# HELP amos_g_x AMOS gauge g_x\n"
              "# TYPE amos_g_x gauge\n"
              "amos_g_x 2\n");
}

TEST(Prometheus, ZeroSampleHistogramRendersZeroSummary)
{
    MetricsRegistry registry;
    LatencyHistogram idle;
    EXPECT_EQ(
        report::prometheusExposition(registry,
                                     {{"idle.ms", &idle}}),
        "# HELP amos_idle_ms AMOS latency summary idle.ms\n"
        "# TYPE amos_idle_ms summary\n"
        "amos_idle_ms{quantile=\"0.5\"} 0\n"
        "amos_idle_ms{quantile=\"0.95\"} 0\n"
        "amos_idle_ms{quantile=\"0.99\"} 0\n"
        "amos_idle_ms_sum 0\n"
        "amos_idle_ms_count 0\n");
}

TEST(Prometheus, WindowedHistogramRendersGaugeQuantiles)
{
    MetricsRegistry registry;
    SlidingWindowHistogram window(30.0, 6);
    EXPECT_EQ(
        report::prometheusExposition(registry, {},
                                     {{"w.ms", &window}}),
        "# HELP amos_w_ms AMOS windowed latency quantiles w.ms "
        "(last 30s)\n"
        "# TYPE amos_w_ms gauge\n"
        "amos_w_ms{quantile=\"0.5\"} 0\n"
        "amos_w_ms{quantile=\"0.95\"} 0\n"
        "amos_w_ms{quantile=\"0.99\"} 0\n"
        "# HELP amos_w_ms_count AMOS windowed sample count w.ms "
        "(last 30s)\n"
        "# TYPE amos_w_ms_count gauge\n"
        "amos_w_ms_count 0\n");
}

TEST(Prometheus, CountersAreMonotonicAcrossScrapes)
{
    MetricsRegistry registry;
    auto &requests = registry.counter("serve.requests");
    requests.add(1);
    auto first = report::prometheusExposition(registry);
    requests.add(5);
    auto second = report::prometheusExposition(registry);

    auto value_of = [](const std::string &text) {
        // Match the sample line, not the "# HELP"/"# TYPE"
        // comments that also carry the series name.
        auto pos = text.find("\namos_serve_requests_total ");
        EXPECT_NE(pos, std::string::npos);
        return std::stod(text.substr(
            pos + std::string("\namos_serve_requests_total ")
                      .size()));
    };
    EXPECT_EQ(value_of(first), 1.0);
    EXPECT_EQ(value_of(second), 6.0);
    EXPECT_GE(value_of(second), value_of(first));
}

} // namespace
} // namespace amos
