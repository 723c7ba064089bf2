/**
 * @file
 * Tests for the warm-start layer: the shape/op feature embedding
 * (metric properties, key round-trips, brute-force NN equivalence),
 * seed translation and schedule clamping, and the tuner-level
 * guarantees — warm-started searches stay bit-identical across
 * thread counts and the patience early-stop bounds the generation
 * count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "amos/amos.hh"
#include "explore/tuner.hh"
#include "explore/warm_start.hh"
#include "hw/hardware.hh"
#include "mapping/generate.hh"
#include "ops/operators.hh"
#include "schedule/schedule.hh"
#include "serve/tiered_cache.hh"
#include "support/rng.hh"

namespace amos {
namespace {

ShapeFeature
gemmFeature(std::int64_t m, std::int64_t n, std::int64_t k)
{
    return shapeFeatureOf(ops::makeGemm(m, n, k), hw::v100());
}

TEST(WarmStartMode, NamesRoundTrip)
{
    for (auto mode :
         {WarmStartMode::Off, WarmStartMode::Neighbors,
          WarmStartMode::Model, WarmStartMode::Both}) {
        auto parsed = warmStartModeFromName(warmStartModeName(mode));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, mode);
    }
    EXPECT_FALSE(warmStartModeFromName("").has_value());
    EXPECT_FALSE(warmStartModeFromName("warm").has_value());
    EXPECT_FALSE(warmStartModeFromName("Neighbors").has_value());
}

TEST(ShapeFeature, SelfDistanceIsZero)
{
    auto f = gemmFeature(128, 64, 32);
    EXPECT_TRUE(f.valid());
    EXPECT_DOUBLE_EQ(shapeDistance(f, f), 0.0);
}

TEST(ShapeFeature, DistanceIsSymmetric)
{
    Rng rng(41);
    for (int i = 0; i < 64; ++i) {
        auto a = gemmFeature(rng.uniformInt(1, 512),
                             rng.uniformInt(1, 512),
                             rng.uniformInt(1, 512));
        auto b = gemmFeature(rng.uniformInt(1, 512),
                             rng.uniformInt(1, 512),
                             rng.uniformInt(1, 512));
        EXPECT_DOUBLE_EQ(shapeDistance(a, b), shapeDistance(b, a));
    }
}

TEST(ShapeFeature, DistanceGrowsWithScale)
{
    // Scaling one dimension further away must increase the
    // distance monotonically (log-space embedding).
    auto base = gemmFeature(64, 64, 64);
    double prev = 0.0;
    for (std::int64_t m : {64, 128, 256, 512, 1024}) {
        double d = shapeDistance(base, gemmFeature(m, 64, 64));
        EXPECT_GE(d, prev);
        if (m > 64)
            EXPECT_GT(d, prev);
        prev = d;
    }
}

TEST(ShapeFeature, CategoricalMismatchIsInfinite)
{
    auto hw = hw::v100();
    auto gemm = shapeFeatureOf(ops::makeGemm(64, 64, 64), hw);
    ops::ConvParams pr;
    pr.batch = 4;
    pr.in_channels = 16;
    pr.out_channels = 16;
    pr.out_h = 7;
    pr.out_w = 7;
    pr.kernel_h = 3;
    pr.kernel_w = 3;
    auto conv = shapeFeatureOf(ops::makeConv2d(pr), hw);
    EXPECT_TRUE(std::isinf(shapeDistance(gemm, conv)));

    auto other_hw = gemm;
    other_hw.hw = "a100";
    EXPECT_TRUE(std::isinf(shapeDistance(gemm, other_hw)));

    auto other_dtype = gemm;
    other_dtype.dtypes = "f32_f32_f32";
    EXPECT_TRUE(std::isinf(shapeDistance(gemm, other_dtype)));
}

TEST(ShapeFeature, KeyRoundTripsThroughTheTuningCache)
{
    auto hw = hw::v100();
    auto gemm = ops::makeGemm(128, 64, 32);
    auto direct = shapeFeatureOf(gemm, hw);
    auto parsed = shapeFeatureOfKey(TuningCache::keyFor(gemm, hw));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(shapeDistance(direct, *parsed), 0.0);

    // The serve layer appends search-knob and warm-start segments;
    // both must parse to the same embedding.
    auto with_knobs = shapeFeatureOfKey(
        TuningCache::keyFor(gemm, hw) + "/g8_s2022");
    ASSERT_TRUE(with_knobs.has_value());
    EXPECT_DOUBLE_EQ(shapeDistance(direct, *with_knobs), 0.0);

    auto with_warm = shapeFeatureOfKey(
        TuningCache::keyFor(gemm, hw) +
        "/g8_s2022/wneighbors-m0123abcd");
    ASSERT_TRUE(with_warm.has_value());
    EXPECT_DOUBLE_EQ(shapeDistance(direct, *with_warm), 0.0);
}

TEST(ShapeFeature, KeyParsesDtypeSignatures)
{
    auto plain = shapeFeatureOfKey("v100/gemm_64_64_64");
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(plain->family, "gemm");
    EXPECT_EQ(plain->hw, "v100");
    EXPECT_TRUE(plain->dtypes.empty());
    ASSERT_EQ(plain->dims.size(), 3u);

    auto typed =
        shapeFeatureOfKey("v100/gemm_64_64_64/f32_f32_f32");
    ASSERT_TRUE(typed.has_value());
    EXPECT_EQ(typed->dtypes, "f32_f32_f32");
    EXPECT_TRUE(std::isinf(shapeDistance(*plain, *typed)));

    auto typed_knobs = shapeFeatureOfKey(
        "v100/gemm_64_64_64/f32_f32_f32/g4_s0/wboth");
    ASSERT_TRUE(typed_knobs.has_value());
    EXPECT_DOUBLE_EQ(shapeDistance(*typed, *typed_knobs), 0.0);
}

TEST(ShapeFeature, ForeignKeysDegradeToNoDonor)
{
    EXPECT_FALSE(shapeFeatureOfKey("").has_value());
    EXPECT_FALSE(shapeFeatureOfKey("v100").has_value());
    EXPECT_FALSE(shapeFeatureOfKey("v100/gemm").has_value());
    EXPECT_FALSE(shapeFeatureOfKey("v100/64_64").has_value());
    EXPECT_FALSE(
        shapeFeatureOfKey("v100/gemm_64_64_64/banana!").has_value());
}

TEST(NearestSeeds, MatchesBruteForceOnRandomShapes)
{
    Rng rng(2022);
    for (int round = 0; round < 20; ++round) {
        auto target = gemmFeature(rng.uniformInt(1, 1024),
                                  rng.uniformInt(1, 1024),
                                  rng.uniformInt(1, 1024));
        std::vector<WarmSeed> donors;
        for (int i = 0; i < 24; ++i) {
            WarmSeed s;
            auto m = rng.uniformInt(1, 1024);
            auto n = rng.uniformInt(1, 1024);
            auto k = rng.uniformInt(1, 1024);
            s.sourceKey = "v100/gemm_" + std::to_string(m) + "_" +
                          std::to_string(n) + "_" +
                          std::to_string(k);
            donors.push_back(std::move(s));
        }
        // A few donors that must never be selected.
        WarmSeed junk;
        junk.sourceKey = "not a cache key";
        donors.push_back(junk);
        junk.sourceKey = "v100/conv2d_8_16_16_7_7_3_3";
        donors.push_back(junk);

        // Brute force: (distance, key) pairs, total order.
        std::vector<std::pair<double, std::string>> ranked;
        for (const auto &d : donors) {
            auto f = shapeFeatureOfKey(d.sourceKey);
            if (!f)
                continue;
            double dist = shapeDistance(target, *f);
            if (dist <= kWarmStartMaxDistance)
                ranked.emplace_back(dist, d.sourceKey);
        }
        std::sort(ranked.begin(), ranked.end());
        if (ranked.size() > kWarmStartMaxNeighbors)
            ranked.resize(kWarmStartMaxNeighbors);

        auto picked = nearestSeeds(target, donors);
        ASSERT_EQ(picked.size(), ranked.size());
        for (std::size_t i = 0; i < picked.size(); ++i) {
            EXPECT_EQ(picked[i].sourceKey, ranked[i].second);
            EXPECT_DOUBLE_EQ(picked[i].distance, ranked[i].first);
        }
    }
}

TEST(NearestSeeds, SelectionIsDonorOrderInvariant)
{
    auto target = gemmFeature(96, 64, 64);
    std::vector<WarmSeed> donors;
    for (std::int64_t m : {32, 64, 128, 256, 512}) {
        WarmSeed s;
        s.sourceKey = "v100/gemm_" + std::to_string(m) + "_64_64";
        donors.push_back(std::move(s));
    }
    auto forward = nearestSeeds(target, donors);
    std::reverse(donors.begin(), donors.end());
    auto backward = nearestSeeds(target, donors);
    ASSERT_EQ(forward.size(), backward.size());
    for (std::size_t i = 0; i < forward.size(); ++i)
        EXPECT_EQ(forward[i].sourceKey, backward[i].sourceKey);
}

TEST(ClampSchedule, LegalSchedulesAreFixpoints)
{
    // Clamping is a projection onto the legal envelope: a schedule
    // sampleSchedule produced for the same plan must survive
    // unchanged, and clamping is idempotent on anything.
    auto gemm = ops::makeGemm(128, 128, 64);
    auto hw = hw::v100();
    auto plans = enumeratePlans(gemm, hw.primaryIntrinsic(), {});
    ASSERT_FALSE(plans.empty());
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        const auto &plan = plans[static_cast<std::size_t>(
            rng.uniformInt(0,
                           static_cast<std::int64_t>(plans.size()) -
                               1))];
        auto legal = sampleSchedule(plan, rng);
        EXPECT_EQ(clampSchedule(plan, legal).toString(),
                  legal.toString());
    }
}

TEST(ClampSchedule, ForeignSchedulesLandOnTheLegalEnvelope)
{
    auto small = ops::makeGemm(32, 32, 32);
    auto big = ops::makeGemm(512, 256, 128);
    auto hw = hw::v100();
    auto small_plans =
        enumeratePlans(small, hw.primaryIntrinsic(), {});
    auto big_plans = enumeratePlans(big, hw.primaryIntrinsic(), {});
    ASSERT_FALSE(small_plans.empty());
    ASSERT_FALSE(big_plans.empty());
    Rng rng(13);
    for (int i = 0; i < 50; ++i) {
        const auto &donor_plan = big_plans[static_cast<std::size_t>(
            rng.uniformInt(
                0,
                static_cast<std::int64_t>(big_plans.size()) - 1))];
        const auto &target_plan =
            small_plans[static_cast<std::size_t>(rng.uniformInt(
                0,
                static_cast<std::int64_t>(small_plans.size()) -
                    1))];
        auto donor = sampleSchedule(donor_plan, rng);
        auto clamped = clampSchedule(target_plan, donor);
        // Idempotence: already on the envelope.
        EXPECT_EQ(clampSchedule(target_plan, clamped).toString(),
                  clamped.toString());
        // Reduction axes stay serial.
        for (std::size_t a = 0; a < clamped.axes.size(); ++a) {
            if (target_plan.outerAxes()[a].reduction) {
                EXPECT_EQ(clamped.axes[a].blockFactor, 1);
                EXPECT_EQ(clamped.axes[a].warpFactor, 1);
            }
        }
    }
}

TEST(TranslateSeed, PrefersTheExactMappingMatch)
{
    // A conv has a rich mapping pool (gemm's is a single plan per
    // intrinsic shape), so "exact match beats first-on-intrinsic"
    // is actually observable.
    ops::ConvParams pr;
    pr.batch = 16;
    pr.in_channels = 64;
    pr.out_channels = 64;
    pr.out_h = 14;
    pr.out_w = 14;
    pr.kernel_h = 3;
    pr.kernel_w = 3;
    auto conv = ops::makeConv2d(pr);
    auto hw = hw::v100();
    auto plans = enumeratePlans(conv, hw.primaryIntrinsic(), {});
    ASSERT_GT(plans.size(), 1u);
    for (std::size_t pick : {std::size_t(0), plans.size() - 1}) {
        WarmSeed seed;
        seed.intrinsicName = plans[pick].intrinsic().name();
        seed.mapping = plans[pick].mapping();
        seed.schedule = defaultSchedule(plans[pick]);
        auto translated = translateSeed(seed, plans);
        ASSERT_TRUE(translated.has_value());
        EXPECT_EQ(translated->first, pick);
    }
}

TEST(TranslateSeed, UnknownIntrinsicIsDropped)
{
    auto gemm = ops::makeGemm(64, 64, 64);
    auto hw = hw::v100();
    auto plans = enumeratePlans(gemm, hw.primaryIntrinsic(), {});
    ASSERT_FALSE(plans.empty());
    WarmSeed seed;
    seed.intrinsicName = "no-such-intrinsic";
    seed.mapping = plans[0].mapping();
    seed.schedule = defaultSchedule(plans[0]);
    EXPECT_FALSE(translateSeed(seed, plans).has_value());
}

/** Tune `donor`, convert the winner into a WarmSeed for reuse. */
WarmSeed
tunedSeed(const TensorComputation &donor, const HardwareSpec &hw,
          TuneOptions options)
{
    auto result = tune(donor, hw, options);
    EXPECT_TRUE(result.tensorizable);
    WarmSeed seed;
    seed.sourceKey = TuningCache::keyFor(donor, hw);
    seed.intrinsicName = result.intrinsicName;
    seed.mapping = result.bestPlan->mapping();
    seed.schedule = result.bestSchedule;
    return seed;
}

void
expectIdenticalResults(const TuneResult &a, const TuneResult &b)
{
    EXPECT_EQ(a.bestCycles, b.bestCycles);
    EXPECT_EQ(a.bestMappingIndex, b.bestMappingIndex);
    EXPECT_EQ(a.mappingSignature, b.mappingSignature);
    EXPECT_EQ(a.computeMapping, b.computeMapping);
    EXPECT_EQ(a.measurements, b.measurements);
    EXPECT_EQ(a.warmStartSeeded, b.warmStartSeeded);
    EXPECT_EQ(a.bestSchedule.toString(), b.bestSchedule.toString());
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].mappingIndex, b.trace[i].mappingIndex);
        EXPECT_EQ(a.trace[i].measuredCycles,
                  b.trace[i].measuredCycles);
        EXPECT_EQ(a.trace[i].bestSoFarCycles,
                  b.trace[i].bestSoFarCycles);
    }
}

TEST(Tuner, WarmSeedsEnterGenerationZero)
{
    auto hw = hw::v100();
    TuneOptions cold;
    cold.generations = 3;
    cold.seed = 11;
    auto seed = tunedSeed(ops::makeGemm(64, 64, 64), hw, cold);

    TuneOptions warm = cold;
    warm.warmStart.mode = WarmStartMode::Neighbors;
    warm.warmStart.seeds = {seed};
    auto result = tune(ops::makeGemm(96, 64, 64), hw, warm);
    ASSERT_TRUE(result.tensorizable);
    EXPECT_EQ(result.warmStartNeighbors, 1);
    EXPECT_EQ(result.warmStartSeeded, 1);
    EXPECT_TRUE(std::isfinite(result.bestCycles));

    // Warm generation 0 measures the seeds instead of the whole
    // expert pool, so the search issues fewer measurements.
    auto cold_run = tune(ops::makeGemm(96, 64, 64), hw, cold);
    EXPECT_LT(result.measurements, cold_run.measurements);
    EXPECT_EQ(cold_run.warmStartSeeded, 0);
}

TEST(Tuner, WarmStartIsThreadCountInvariant)
{
    auto hw = hw::v100();
    TuneOptions cold;
    cold.generations = 3;
    cold.seed = 5;
    auto seed_a = tunedSeed(ops::makeGemm(64, 64, 64), hw, cold);
    auto seed_b = tunedSeed(ops::makeGemm(128, 64, 64), hw, cold);

    TuneOptions base;
    base.generations = 3;
    base.seed = 2022;
    base.numThreads = 1;
    base.warmStart.mode = WarmStartMode::Neighbors;
    base.warmStart.seeds = {seed_a, seed_b};
    auto gemm = ops::makeGemm(96, 64, 64);
    auto serial = tune(gemm, hw, base);
    ASSERT_TRUE(serial.tensorizable);
    EXPECT_GT(serial.warmStartSeeded, 0);
    for (int threads : {2, 8}) {
        TuneOptions options = base;
        options.numThreads = threads;
        expectIdenticalResults(serial, tune(gemm, hw, options));
    }
}

TEST(Tuner, ModelSnapshotScreeningIsThreadCountInvariant)
{
    auto hw = hw::v100();
    auto gemm = ops::makeGemm(96, 64, 64);

    // Train a snapshot from one exploration's own measurements.
    auto model = std::make_shared<LearnedModel>();
    TuneOptions harvest;
    harvest.generations = 4;
    harvest.numThreads = 1;
    harvest.sampleSink = model.get();
    tune(ops::makeGemm(64, 64, 64), hw, harvest);
    model->fit();
    ASSERT_TRUE(model->trained());

    TuneOptions base;
    base.generations = 3;
    base.seed = 9;
    base.numThreads = 1;
    base.warmStart.mode = WarmStartMode::Model;
    base.warmStart.model = model;
    auto serial = tune(gemm, hw, base);
    ASSERT_TRUE(serial.tensorizable);
    for (int threads : {2, 8}) {
        TuneOptions options = base;
        options.numThreads = threads;
        expectIdenticalResults(serial, tune(gemm, hw, options));
    }
}

TEST(Tuner, SampleSinkIsResultNeutral)
{
    auto hw = hw::v100();
    auto gemm = ops::makeGemm(96, 64, 64);
    TuneOptions plain;
    plain.generations = 3;
    auto a = tune(gemm, hw, plain);

    LearnedModel sink;
    TuneOptions sinked = plain;
    sinked.sampleSink = &sink;
    auto b = tune(gemm, hw, sinked);
    expectIdenticalResults(a, b);
    EXPECT_GT(sink.sampleCount(), 0u);
}

TEST(Tuner, PatienceBoundsTheGenerationCount)
{
    auto hw = hw::v100();
    auto gemm = ops::makeGemm(64, 64, 64);
    TuneOptions full;
    full.generations = 12;
    full.seed = 3;
    auto baseline = tune(gemm, hw, full);

    TuneOptions impatient = full;
    impatient.warmStart.patience = 1;
    auto stopped = tune(gemm, hw, impatient);
    ASSERT_TRUE(stopped.tensorizable);
    EXPECT_LE(stopped.telemetry.size(), baseline.telemetry.size());
    EXPECT_LE(stopped.measurements, baseline.measurements);
    // The early stop never abandons the incumbent.
    EXPECT_TRUE(std::isfinite(stopped.bestCycles));
}

TEST(Compiler, CompileWithCacheSeedsFromNeighbors)
{
    auto hw = hw::v100();
    serve::TieredCache cache(serve::TieredCache::Options{});
    TuneOptions options;
    options.generations = 3;
    options.warmStart.mode = WarmStartMode::Neighbors;
    Compiler compiler(hw, options);

    // First compile: empty cache, no donors, still succeeds.
    auto first =
        serve::compileWithCache(compiler, ops::makeGemm(64, 64, 64),
                                cache);
    ASSERT_TRUE(first.tensorized);
    EXPECT_EQ(first.tuning.warmStartNeighbors, 0);

    // Second compile, new shape in the same family: the cached
    // winner becomes a donor.
    auto second = serve::compileWithCache(
        compiler, ops::makeGemm(96, 64, 64), cache);
    ASSERT_TRUE(second.tensorized);
    EXPECT_EQ(second.tuning.warmStartNeighbors, 1);
    EXPECT_GT(second.tuning.warmStartSeeded, 0);

    // Replay of the second shape hits the cache without a search.
    auto replay = serve::compileWithCache(
        compiler, ops::makeGemm(96, 64, 64), cache);
    EXPECT_EQ(replay.measurements, 0);
    EXPECT_DOUBLE_EQ(replay.cycles, second.cycles);
}

} // namespace
} // namespace amos
