/**
 * @file
 * Unit tests for the learned cost model: feature extraction, fitting
 * behaviour, prediction quality on its own training archive, and
 * integration with the tuner.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "explore/learned_model.hh"
#include "explore/stats.hh"
#include "explore/tuner.hh"
#include "hw/hardware.hh"
#include "mapping/generate.hh"
#include "ops/conv_layers.hh"
#include "sim/simulator.hh"

namespace amos {
namespace {

/** Sampled (profile, measured) archive for one conv layer. */
struct Archive
{
    std::vector<KernelProfile> profiles;
    std::vector<double> cycles;
};

Archive
sampleArchive(int count, std::uint64_t seed)
{
    auto conv = ops::resnet18ConvLayers(16)[5].build();
    auto hw = hw::v100();
    auto plans = enumeratePlans(conv, hw.primaryIntrinsic(), {});
    Rng rng(seed);
    Archive archive;
    while (static_cast<int>(archive.profiles.size()) < count) {
        const auto &plan = plans[static_cast<std::size_t>(
            rng.uniformInt(0,
                           static_cast<std::int64_t>(plans.size()) -
                               1))];
        auto sched = sampleSchedule(plan, rng);
        auto prof = lowerKernel(plan, sched, hw);
        auto sim = simulateKernel(prof, hw);
        if (!sim.schedulable)
            continue;
        archive.profiles.push_back(prof);
        archive.cycles.push_back(sim.cycles);
    }
    return archive;
}

TEST(LearnedModel, FeatureVectorShape)
{
    auto archive = sampleArchive(1, 3);
    auto hw = hw::v100();
    auto f = LearnedModel::features(archive.profiles[0], hw);
    EXPECT_EQ(f.size(), LearnedModel::featureCount());
    EXPECT_DOUBLE_EQ(f[0], 1.0); // bias term
    for (double v : f)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(LearnedModel, UntrainedFallsBackToAnalytic)
{
    auto archive = sampleArchive(1, 4);
    auto hw = hw::v100();
    LearnedModel model;
    EXPECT_FALSE(model.trained());
    EXPECT_DOUBLE_EQ(model.predictCycles(archive.profiles[0], hw),
                     modelCycles(archive.profiles[0], hw));
}

TEST(LearnedModel, FitRequiresMinimumSamples)
{
    auto archive = sampleArchive(
        static_cast<int>(LearnedModel::kMinSamples) - 1, 5);
    auto hw = hw::v100();
    LearnedModel model;
    for (std::size_t i = 0; i < archive.profiles.size(); ++i)
        model.addSample(archive.profiles[i], hw, archive.cycles[i]);
    model.fit();
    EXPECT_FALSE(model.trained());
}

TEST(LearnedModel, IgnoresUnusableSamples)
{
    auto archive = sampleArchive(1, 6);
    auto hw = hw::v100();
    LearnedModel model;
    model.addSample(archive.profiles[0], hw, -1.0);
    model.addSample(archive.profiles[0], hw,
                    std::numeric_limits<double>::infinity());
    EXPECT_EQ(model.sampleCount(), 0u);
}

TEST(LearnedModel, FitsItsTrainingArchive)
{
    auto archive = sampleArchive(60, 7);
    auto hw = hw::v100();
    LearnedModel model;
    for (std::size_t i = 0; i < archive.profiles.size(); ++i)
        model.addSample(archive.profiles[i], hw, archive.cycles[i]);
    model.fit();
    ASSERT_TRUE(model.trained());

    // Geometric-mean relative error on the training set must beat
    // the analytic model's (the regression corrects its bias).
    double learned_err = 0.0, analytic_err = 0.0;
    for (std::size_t i = 0; i < archive.profiles.size(); ++i) {
        double truth = archive.cycles[i];
        double lp = model.predictCycles(archive.profiles[i], hw);
        double ap = modelCycles(archive.profiles[i], hw);
        learned_err += std::fabs(std::log(lp / truth));
        analytic_err += std::fabs(std::log(ap / truth));
    }
    EXPECT_LT(learned_err, analytic_err);
}

TEST(LearnedModel, GeneralisesToHeldOutSamples)
{
    auto train = sampleArchive(80, 11);
    auto test = sampleArchive(30, 99);
    auto hw = hw::v100();
    LearnedModel model;
    for (std::size_t i = 0; i < train.profiles.size(); ++i)
        model.addSample(train.profiles[i], hw, train.cycles[i]);
    model.fit();
    ASSERT_TRUE(model.trained());

    // Rank quality on held-out data: pairwise accuracy above chance.
    std::vector<ExplorationStep> steps;
    for (std::size_t i = 0; i < test.profiles.size(); ++i)
        steps.push_back(
            {static_cast<int>(i), 0,
             model.predictCycles(test.profiles[i], hw),
             test.cycles[i], 0.0});
    EXPECT_GT(pairwiseAccuracy(steps), 0.7);
}

TEST(LearnedModel, InvalidProfilePredictsInfinity)
{
    auto gemm = ops::makeGemm(4096, 4096, 64);
    ComputeMapping m;
    m.groups = {{0}, {1}, {2}};
    MappingPlan plan(gemm, isa::wmma(16, 16, 16), m);
    auto hw = hw::v100();
    auto prof = lowerKernel(plan, defaultSchedule(plan), hw);
    LearnedModel model;
    EXPECT_TRUE(std::isinf(model.predictCycles(prof, hw)));
}

LearnedModel
trainedModel(int samples, std::uint64_t seed)
{
    auto archive = sampleArchive(samples, seed);
    auto hw = hw::v100();
    LearnedModel model;
    for (std::size_t i = 0; i < archive.profiles.size(); ++i)
        model.addSample(archive.profiles[i], hw, archive.cycles[i]);
    model.fit();
    return model;
}

TEST(Snapshot, JsonRoundTripPreservesPredictions)
{
    auto model = trainedModel(60, 21);
    ASSERT_TRUE(model.trained());
    auto restored = LearnedModel::fromJson(
        Json::parse(model.toJson().dump()));
    ASSERT_TRUE(restored.has_value());
    EXPECT_TRUE(restored->trained());
    EXPECT_EQ(restored->fittedSamples(), model.fittedSamples());
    EXPECT_EQ(restored->digest(), model.digest());

    // Bit-exact predictions: weights dump with enough precision to
    // survive the round trip, so warm-started searches behave the
    // same whether the model came from memory or from disk.
    auto probe = sampleArchive(10, 77);
    auto hw = hw::v100();
    for (std::size_t i = 0; i < probe.profiles.size(); ++i)
        EXPECT_DOUBLE_EQ(
            restored->predictCycles(probe.profiles[i], hw),
            model.predictCycles(probe.profiles[i], hw));
}

TEST(Snapshot, SaveAndLoadFileRoundTrip)
{
    auto model = trainedModel(60, 22);
    auto path = (std::filesystem::temp_directory_path() /
                 ("amos_model_" + std::to_string(::getpid()) +
                  ".json"))
                    .string();
    model.saveFile(path);
    auto loaded = LearnedModel::loadFile(path);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->digest(), model.digest());
}

TEST(Snapshot, ConcurrentSaversOfOnePathNeverCollide)
{
    // A trainer and a reloading server (or two trainers) writing one
    // snapshot path: every save installs a whole snapshot.
    auto model = trainedModel(60, 22);
    auto path = (std::filesystem::temp_directory_path() /
                 ("amos_model_race_" + std::to_string(::getpid()) +
                  ".json"))
                    .string();
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 20; ++i) {
                try {
                    model.saveFile(path);
                } catch (const std::exception &) {
                    failures.fetch_add(1);
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(), 0);
    auto loaded = LearnedModel::loadFile(path);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->digest(), model.digest());
}

TEST(Snapshot, UntrainedModelRefusesToSerialise)
{
    LearnedModel model;
    EXPECT_THROW(model.toJson(), std::exception);
}

TEST(Snapshot, CorruptInputsLoadAsNulloptNeverCrash)
{
    auto good = trainedModel(60, 23).toJson();

    auto corrupt = [&](auto mutate) {
        Json doc = Json::parse(good.dump());
        mutate(doc);
        return LearnedModel::fromJson(doc);
    };

    // Wrong or missing schema tag.
    EXPECT_FALSE(corrupt([](Json &d) {
                     d.set("schema", Json("amos-learned-model-v9"));
                 }).has_value());
    // Feature-count mismatch (a snapshot from a different build).
    EXPECT_FALSE(corrupt([](Json &d) {
                     d.set("feature_count", Json(std::int64_t(3)));
                 }).has_value());
    // Truncated weight vector.
    EXPECT_FALSE(corrupt([](Json &d) {
                     Json w = Json::array();
                     w.push(Json(1.0));
                     d.set("weights", w);
                 }).has_value());
    // Non-numeric weight.
    EXPECT_FALSE(corrupt([](Json &d) {
                     Json w = Json::array();
                     for (std::size_t i = 0;
                          i < LearnedModel::featureCount(); ++i)
                         w.push(Json("nan"));
                     d.set("weights", w);
                 }).has_value());
    // Entirely the wrong document shape.
    EXPECT_FALSE(
        LearnedModel::fromJson(Json(std::int64_t(7))).has_value());
    EXPECT_FALSE(LearnedModel::fromJson(Json::object()).has_value());

    // The intact document still loads.
    EXPECT_TRUE(LearnedModel::fromJson(good).has_value());
}

TEST(Snapshot, UnreadableOrUnparseableFilesLoadAsNullopt)
{
    EXPECT_FALSE(LearnedModel::loadFile("/nonexistent/model.json")
                     .has_value());

    auto path = (std::filesystem::temp_directory_path() /
                 ("amos_model_garbage_" +
                  std::to_string(::getpid()) + ".json"))
                    .string();
    {
        std::ofstream out(path);
        out << "{ this is not json";
    }
    EXPECT_FALSE(LearnedModel::loadFile(path).has_value());
    std::remove(path.c_str());
}

TEST(Snapshot, DigestSeparatesDifferentFits)
{
    auto a = trainedModel(60, 31);
    auto b = trainedModel(60, 32);
    EXPECT_EQ(a.digest().size(), 16u);
    EXPECT_EQ(a.digest(), trainedModel(60, 31).digest());
    EXPECT_NE(a.digest(), b.digest());
}

TEST(LearnedModel, TunerIntegrationFindsComparableResults)
{
    auto conv = ops::resnet18ConvLayers(16)[8].build();
    auto hw = hw::v100();
    TuneOptions analytic;
    analytic.generations = 6;
    TuneOptions learned = analytic;
    learned.useLearnedModel = true;
    auto a = tune(conv, hw, analytic);
    auto l = tune(conv, hw, learned);
    ASSERT_TRUE(a.tensorizable && l.tensorizable);
    // The learned screening must stay within 25% of the analytic
    // pipeline's result (it typically matches or beats it).
    EXPECT_LT(l.bestCycles, a.bestCycles * 1.25);
    EXPECT_TRUE(std::isfinite(l.bestCycles));
}

} // namespace
} // namespace amos
