/**
 * @file
 * Unit tests for the joint mapping/schedule tuner and the
 * exploration statistics (Fig. 5 machinery).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "explore/learned_model.hh"
#include "explore/stats.hh"
#include "explore/trace_io.hh"
#include "explore/tuner.hh"
#include "hw/hardware.hh"
#include "ops/operators.hh"
#include "schedule/profile.hh"
#include "support/trace.hh"

namespace amos {
namespace {

ops::ConvParams
mediumConv()
{
    ops::ConvParams pr;
    pr.batch = 16;
    pr.in_channels = 64;
    pr.out_channels = 64;
    pr.out_h = 14;
    pr.out_w = 14;
    pr.kernel_h = 3;
    pr.kernel_w = 3;
    return pr;
}

TEST(Tuner, FindsTensorizedResultForConv)
{
    auto conv = ops::makeConv2d(mediumConv());
    auto hw = hw::v100();
    TuneOptions options;
    options.generations = 6;
    auto result = tune(conv, hw, options);
    ASSERT_TRUE(result.tensorizable);
    // 35 mappings per WMMA shape x 3 Tensor Core problem shapes.
    EXPECT_EQ(result.numMappings, 3 * 35u);
    EXPECT_FALSE(result.intrinsicName.empty());
    EXPECT_GT(result.measurements, 0);
    EXPECT_GT(result.bestCycles, 0.0);
    EXPECT_TRUE(std::isfinite(result.bestCycles));
    EXPECT_FALSE(result.mappingSignature.empty());
    EXPECT_FALSE(result.computeMapping.empty());
    ASSERT_TRUE(result.bestPlan.has_value());
    EXPECT_TRUE(result.bestPlan->valid());
}

TEST(Tuner, DeterministicForFixedSeed)
{
    auto conv = ops::makeConv2d(mediumConv());
    auto hw = hw::v100();
    TuneOptions options;
    options.seed = 123;
    options.generations = 4;
    auto a = tune(conv, hw, options);
    auto b = tune(conv, hw, options);
    EXPECT_EQ(a.bestCycles, b.bestCycles);
    EXPECT_EQ(a.mappingSignature, b.mappingSignature);
    EXPECT_EQ(a.trace.size(), b.trace.size());
}

/**
 * The parallel engine's core guarantee: the tuned result is
 * bit-identical for every thread count (per-candidate RNG streams,
 * ordered reductions). Checked field-by-field including the full
 * exploration trace.
 */
void
expectIdenticalResults(const TuneResult &a, const TuneResult &b)
{
    EXPECT_EQ(a.bestCycles, b.bestCycles);
    EXPECT_EQ(a.bestModelCycles, b.bestModelCycles);
    EXPECT_EQ(a.bestMappingIndex, b.bestMappingIndex);
    EXPECT_EQ(a.mappingSignature, b.mappingSignature);
    EXPECT_EQ(a.computeMapping, b.computeMapping);
    EXPECT_EQ(a.intrinsicName, b.intrinsicName);
    EXPECT_EQ(a.measurements, b.measurements);
    EXPECT_EQ(a.bestSchedule.toString(), b.bestSchedule.toString());
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].step, b.trace[i].step);
        EXPECT_EQ(a.trace[i].mappingIndex, b.trace[i].mappingIndex);
        EXPECT_EQ(a.trace[i].predictedCycles,
                  b.trace[i].predictedCycles);
        EXPECT_EQ(a.trace[i].measuredCycles,
                  b.trace[i].measuredCycles);
        EXPECT_EQ(a.trace[i].bestSoFarCycles,
                  b.trace[i].bestSoFarCycles);
    }
}

TEST(Tuner, ThreadCountInvariantForConv)
{
    auto conv = ops::makeConv2d(mediumConv());
    auto hw = hw::v100();
    TuneOptions base;
    base.generations = 3;
    base.seed = 77;
    base.numThreads = 1;
    auto serial = tune(conv, hw, base);
    ASSERT_TRUE(serial.tensorizable);
    for (int threads : {2, 8}) {
        TuneOptions options = base;
        options.numThreads = threads;
        auto res = tune(conv, hw, options);
        expectIdenticalResults(serial, res);
    }
}

TEST(Tuner, ThreadCountInvariantForGemm)
{
    auto gemm = ops::makeGemm(256, 256, 256);
    auto hw = hw::v100();
    TuneOptions base;
    base.generations = 3;
    base.seed = 2022;
    base.numThreads = 1;
    auto serial = tune(gemm, hw, base);
    ASSERT_TRUE(serial.tensorizable);
    for (int threads : {2, 8}) {
        TuneOptions options = base;
        options.numThreads = threads;
        auto res = tune(gemm, hw, options);
        expectIdenticalResults(serial, res);
    }
}

TEST(Tuner, ThreadCountInvariantWithLearnedModel)
{
    // The learned model trains on measured samples; sample order is
    // part of the determinism contract too.
    auto conv = ops::makeConv2d(mediumConv());
    auto hw = hw::v100();
    TuneOptions base;
    base.generations = 3;
    base.useLearnedModel = true;
    base.numThreads = 1;
    auto serial = tune(conv, hw, base);
    TuneOptions par = base;
    par.numThreads = 4;
    expectIdenticalResults(serial, tune(conv, hw, par));
}

/**
 * FNV-1a over a canonical rendering of the whole tune result: winner,
 * %.17g cycles, measurement counts, the full exploration trace, every
 * telemetry row and the runners-up. Any move of the search trajectory
 * (one different draw, one extra screen that changes a ranking) moves
 * the digest.
 */
std::uint64_t
resultDigest(const TuneResult &r)
{
    std::string text;
    auto add = [&text](const char *fmt, auto... values) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), fmt, values...);
        text += buf;
        text += ';';
    };
    auto addDouble = [&add](double v) { add("%.17g", v); };
    add("%d", r.tensorizable ? 1 : 0);
    add("%zu", r.numMappings);
    add("%d", r.measurements);
    add("%d", r.warmStartNeighbors);
    add("%d", r.warmStartSeeded);
    add("%zu", r.bestMappingIndex);
    text += r.bestSchedule.toString() + ";";
    addDouble(r.bestCycles);
    addDouble(r.bestModelCycles);
    addDouble(r.bestSim.cycles);
    text += r.mappingSignature + ";" + r.computeMapping + ";" +
            r.intrinsicName + ";";
    for (const auto &s : r.trace) {
        add("%d", s.step);
        add("%zu", s.mappingIndex);
        addDouble(s.predictedCycles);
        addDouble(s.measuredCycles);
        addDouble(s.bestSoFarCycles);
    }
    for (const auto &row : r.telemetry) {
        add("%d", row.generation);
        text += row.phase + ";";
        add("%d", row.populationSize);
        add("%zu", row.distinctMappings);
        add("%zu", row.distinctGenomes);
        add("%d", row.measuredNew);
        add("%d", row.measuredReused);
        addDouble(row.bestPredictedCycles);
        addDouble(row.meanPredictedCycles);
        addDouble(row.bestMeasuredCycles);
        addDouble(row.meanMeasuredCycles);
    }
    for (const auto &up : r.runnersUp) {
        add("%zu", up.mappingIndex);
        text += up.schedule.toString() + ";";
        addDouble(up.measuredCycles);
        addDouble(up.modelCycles);
    }
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

ops::ConvParams
smallConv(std::int64_t channels, std::int64_t size)
{
    ops::ConvParams pr;
    pr.batch = 1;
    pr.in_channels = channels;
    pr.out_channels = channels;
    pr.out_h = size;
    pr.out_w = size;
    pr.kernel_h = 3;
    pr.kernel_w = 3;
    return pr;
}

/** A warm-start `both` configuration: two donor seeds + a snapshot. */
WarmStartOptions
warmBothForGemm(const HardwareSpec &hw)
{
    WarmStartOptions warm;
    warm.mode = WarmStartMode::Both;
    warm.patience = kWarmStartPatience;
    auto model = std::make_shared<LearnedModel>();
    for (std::int64_t m : {64, 128}) {
        TuneOptions donor;
        donor.generations = 3;
        donor.seed = 5;
        donor.numThreads = 1;
        donor.sampleSink = model.get();
        auto comp = ops::makeGemm(m, 64, 64);
        auto res = tune(comp, hw, donor);
        EXPECT_TRUE(res.tensorizable);
        WarmSeed seed;
        seed.sourceKey = "gemm/" + std::to_string(m);
        seed.intrinsicName = res.intrinsicName;
        seed.mapping = res.bestPlan->mapping();
        seed.schedule = res.bestSchedule;
        warm.seeds.push_back(std::move(seed));
    }
    model->fit();
    EXPECT_TRUE(model->trained());
    warm.model = model;
    return warm;
}

/**
 * Trajectory goldens: the digests below were recorded before the
 * search loop learned to memoize plan-invariant lowering, skip
 * re-screening unchanged survivors and seed its per-candidate RNG
 * streams lazily. Those are pure cost cuts; every case must walk
 * exactly the same trajectory at 1 and 4 threads.
 */
TEST(Tuner, GoldenTrajectoryDigests)
{
    struct Case
    {
        const char *name;
        TensorComputation comp;
        HardwareSpec hw;
        TuneOptions options;
        std::uint64_t digest;
    };
    auto opts = [](int generations, std::uint64_t seed) {
        TuneOptions o;
        o.generations = generations;
        o.seed = seed;
        return o;
    };
    std::vector<Case> cases;
    cases.push_back({"conv2d@v100", ops::makeConv2d(smallConv(64, 14)),
                     hw::v100(), opts(4, 11), 0xc8a1ae9242276f3bULL});
    cases.push_back({"gemm_u8i8@xeon",
                     ops::quantizedVariant(ops::makeGemm(128, 256, 64)),
                     hw::byName("xeon"), opts(4, 12), 0x7baf43677c369571ULL});
    cases.push_back({"depthwise_i8@mali",
                     ops::quantizedVariant(
                         ops::makeDepthwiseConv2d(smallConv(32, 28)),
                         DataType::I8, DataType::I8),
                     hw::byName("mali"), opts(4, 13), 0x15a90a3fb98180e8ULL});
    cases.push_back({"conv3d_u8i8@amx",
                     ops::quantizedVariant(
                         ops::makeConv3d(smallConv(32, 8), 4, 3)),
                     hw::byName("amx"), opts(3, 14), 0xeb464d334b27eab3ULL});
    {
        TuneOptions learned = opts(4, 15);
        learned.useLearnedModel = true;
        cases.push_back({"conv2d_learned@v100",
                         ops::makeConv2d(smallConv(64, 14)), hw::v100(),
                         learned, 0xe6cc7eabc1749c0bULL});
    }
    {
        TuneOptions warm = opts(4, 16);
        warm.warmStart = warmBothForGemm(hw::v100());
        cases.push_back({"gemm_warm_both@v100",
                         ops::makeGemm(96, 64, 64), hw::v100(), warm,
                         0x172536355832d325ULL});
    }
    for (const auto &c : cases) {
        for (int threads : {1, 4}) {
            TuneOptions options = c.options;
            options.numThreads = threads;
            auto res = tune(c.comp, c.hw, options);
            ASSERT_TRUE(res.tensorizable) << c.name;
            char got[32];
            std::snprintf(got, sizeof(got), "0x%016" PRIx64,
                          resultDigest(res));
            EXPECT_EQ(resultDigest(res), c.digest)
                << c.name << " at " << threads
                << " threads: digest " << got;
        }
    }
}

/** The root explore.tune span's args. */
std::map<std::string, std::string>
tuneSpanArgs(const TensorComputation &comp, const HardwareSpec &hw,
               const TuneOptions &options)
{
    auto &recorder = FlightRecorder::global();
    const std::uint64_t seq = recorder.beginRequest();
    {
        FlightScope scope(seq, "tune-counts");
        tune(comp, hw, options);
    }
    // Exploit sub-searches nest their own explore.tune spans inside
    // the root; the root is the longest.
    const FlightRecord *root = nullptr;
    auto spans = recorder.harvest(seq);
    for (const auto &rec : spans)
        if (std::string_view(rec.name) == "explore.tune" &&
            (!root || rec.durUs > root->durUs))
            root = &rec;
    std::map<std::string, std::string> args;
    if (!root) {
        ADD_FAILURE() << "no explore.tune span recorded";
        return args;
    }
    root->forEachArg([&](std::string_view key, std::string_view value) {
        args[std::string(key)] = std::string(value);
    });
    return args;
}

TEST(Tuner, TuneSpanAttributesLoweringAndScreening)
{
    // The xeon case carries the longest built-in hardware name: all
    // args must still fit the span's inline arg buffer.
    std::vector<std::pair<TensorComputation, HardwareSpec>> cases = {
        {ops::makeGemm(256, 256, 256), hw::v100()},
        {ops::quantizedVariant(ops::makeConv3d(smallConv(32, 8), 4, 3)),
         hw::byName("xeon")}};
    for (const auto &[comp, hw] : cases) {
        for (bool learned : {false, true}) {
            TuneOptions options;
            options.generations = 4;
            options.useLearnedModel = learned;
            options.numThreads = 1;
            auto serial = tuneSpanArgs(comp, hw, options);
            std::map<std::string, std::int64_t> count;
            for (const char *key :
                 {"lowered", "screened", "screen_skipped", "measured"}) {
                ASSERT_TRUE(serial.count(key))
                    << hw.name << ": " << key
                    << " missing (args truncated?)";
                count[key] = std::stoll(serial[key]);
            }
            options.numThreads = 4;
            EXPECT_EQ(tuneSpanArgs(comp, hw, options), serial);

            auto result = tune(comp, hw, options);
            EXPECT_EQ(count["measured"], result.measurements);
            // Every screen and every measurement lowers one profile.
            EXPECT_EQ(count["lowered"],
                      count["screened"] + count["measured"]);
            if (learned) {
                // The online model refits every generation:
                // survivors' screens can change, so every candidate
                // is re-screened.
                EXPECT_EQ(count["screen_skipped"], 0);
            } else {
                EXPECT_GT(count["screen_skipped"], 0);
            }
        }
    }
}

TEST(Tuner, MoreSearchNeverHurts)
{
    auto conv = ops::makeConv2d(mediumConv());
    auto hw = hw::v100();
    TuneOptions tiny;
    tiny.population = 6;
    tiny.generations = 2;
    tiny.measureTopK = 2;
    TuneOptions big;
    big.population = 24;
    big.generations = 10;
    big.measureTopK = 8;
    big.seed = tiny.seed;
    auto small_res = tune(conv, hw, tiny);
    auto big_res = tune(conv, hw, big);
    // Not guaranteed in general for random search with different
    // sampling paths, but with the shared seed and a strictly larger
    // budget the archive can only improve or match here.
    EXPECT_LE(big_res.bestCycles, small_res.bestCycles * 1.05);
    EXPECT_GT(big_res.measurements, small_res.measurements);
}

TEST(Tuner, NotTensorizableWhenOperandCountMismatches)
{
    IterVar i{Var("i"), 32, IterKind::Spatial};
    TensorDecl a("A", {32});
    TensorDecl out("out", {32});
    TensorComputation sum("sum", {i}, out, {i.var}, {{a, {i.var}}},
                          CombineKind::SumReduce);
    auto result = tune(sum, hw::v100(), {});
    EXPECT_FALSE(result.tensorizable);
}

TEST(Tuner, BestResultIsReproducible)
{
    // Re-simulating the winner must reproduce its reported cycles.
    auto conv = ops::makeConv2d(mediumConv());
    auto hw = hw::v100();
    auto result = tune(conv, hw, {});
    ASSERT_TRUE(result.bestPlan.has_value());
    auto prof =
        lowerKernel(*result.bestPlan, result.bestSchedule, hw);
    auto sim = simulateKernel(prof, hw);
    EXPECT_DOUBLE_EQ(sim.cycles, result.bestCycles);
}

TEST(Tuner, TraceRecordsMonotoneBest)
{
    auto conv = ops::makeConv2d(mediumConv());
    auto result = tune(conv, hw::v100(), {});
    ASSERT_GT(result.trace.size(), 1u);
    double best = result.trace.front().bestSoFarCycles;
    for (const auto &step : result.trace) {
        EXPECT_LE(step.bestSoFarCycles, best + 1e-9);
        best = step.bestSoFarCycles;
        EXPECT_GT(step.predictedCycles, 0.0);
        EXPECT_GT(step.measuredCycles, 0.0);
    }
    EXPECT_DOUBLE_EQ(best, result.bestCycles);
}

TEST(Tuner, PinnedMappingExploresSchedulesOnly)
{
    auto conv = ops::makeConv2d(mediumConv());
    auto intr = hw::v100().primaryIntrinsic();
    auto plans = enumeratePlans(conv, intr, {});
    auto result = tuneWithMapping(plans.front(), hw::v100(), {});
    ASSERT_TRUE(result.tensorizable);
    EXPECT_EQ(result.numMappings, 1u);
    for (const auto &step : result.trace)
        EXPECT_EQ(step.mappingIndex, 0u);
}

TEST(Tuner, MaxMappingsCapsThePool)
{
    auto conv = ops::makeConv2d(mediumConv());
    TuneOptions options;
    options.maxMappings = 5;
    auto result = tune(conv, hw::v100(), options);
    EXPECT_EQ(result.numMappings, 5u);
}

TEST(Stats, PairwiseAccuracyPerfectAndInverted)
{
    std::vector<ExplorationStep> perfect = {
        {1, 0, 10.0, 100.0, 0}, {2, 0, 20.0, 200.0, 0},
        {3, 0, 30.0, 300.0, 0}};
    EXPECT_DOUBLE_EQ(pairwiseAccuracy(perfect), 1.0);
    std::vector<ExplorationStep> inverted = {
        {1, 0, 30.0, 100.0, 0}, {2, 0, 20.0, 200.0, 0},
        {3, 0, 10.0, 300.0, 0}};
    EXPECT_DOUBLE_EQ(pairwiseAccuracy(inverted), 0.0);
    EXPECT_DOUBLE_EQ(pairwiseAccuracy({}), 1.0);
}

TEST(Stats, PairwiseAccuracyIgnoresTies)
{
    std::vector<ExplorationStep> ties = {
        {1, 0, 10.0, 100.0, 0},
        {2, 0, 10.0, 200.0, 0}, // predicted tie: uninformative
        {3, 0, 20.0, 300.0, 0}};
    // Informative pairs: (1,3) ordered correctly, (2,3) correct.
    EXPECT_DOUBLE_EQ(pairwiseAccuracy(ties), 1.0);
}

TEST(Stats, TopFractionRecallBounds)
{
    std::vector<ExplorationStep> trace;
    for (int i = 0; i < 10; ++i)
        trace.push_back(
            {i, 0, static_cast<double>(10 - i), // inverted prediction
             static_cast<double>(i + 1), 0});
    double recall_all = topFractionRecall(trace, 1.0);
    EXPECT_DOUBLE_EQ(recall_all, 1.0); // everything is in the top-100%
    double recall_small = topFractionRecall(trace, 0.2);
    EXPECT_DOUBLE_EQ(recall_small, 0.0); // inverted ranking
    EXPECT_THROW(topFractionRecall(trace, 0.0), PanicError);
    EXPECT_THROW(topFractionRecall(trace, 1.5), PanicError);
}

TEST(Stats, RecallOnRealTuningTraceIsUseful)
{
    // The model must be better than random at ranking real
    // candidates: pairwise accuracy above 0.5 and top-40% recall
    // above 0.4 (random baselines).
    auto conv = ops::makeConv2d(mediumConv());
    TuneOptions options;
    options.generations = 10;
    options.measureTopK = 8;
    auto result = tune(conv, hw::v100(), options);
    ASSERT_GE(result.trace.size(), 20u);
    EXPECT_GT(pairwiseAccuracy(result.trace), 0.5);
    EXPECT_GT(topFractionRecall(result.trace, 0.4), 0.4);
}

TEST(TraceIo, CsvRoundTripShape)
{
    std::vector<ExplorationStep> trace = {
        {1, 0, 100.5, 120.25, 120.25}, {2, 3, 90.0, 95.0, 95.0}};
    auto csv = traceToCsv(trace);
    // Header + one line per step.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
    EXPECT_NE(csv.find("step,mapping,predicted_cycles"),
              std::string::npos);
    EXPECT_NE(csv.find("2,3,90,95,95"), std::string::npos);

    std::string path = "/tmp/amos_trace_test.csv";
    writeTextFile(path, csv);
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), csv);
    std::remove(path.c_str());
    EXPECT_THROW(writeTextFile("/no/such/dir/x.csv", "x"),
                 FatalError);
}

TEST(Stats, GeoMeanRelativeErrorSane)
{
    std::vector<ExplorationStep> trace = {{1, 0, 100.0, 200.0, 0},
                                          {2, 0, 400.0, 200.0, 0}};
    EXPECT_DOUBLE_EQ(geoMeanRelativeError(trace), 2.0);
    EXPECT_DOUBLE_EQ(geoMeanRelativeError({}), 1.0);
}

} // namespace
} // namespace amos
