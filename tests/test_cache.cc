/**
 * @file
 * Unit tests for the tuning cache: mapping/schedule serialisation
 * round-trips, entry instantiation, the workload key, and the
 * `amos_cli --cache` path — serve::compileWithCache over a
 * TieredCache opened the way the CLI opens it (every entry in
 * memory), including eight forked processes sharing one directory.
 * The store's fault rules (torn tail, flipped byte, crash inside
 * compaction, two-process appends) are tested in test_serve.cc.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "amos/amos.hh"
#include "ops/conv_layers.hh"
#include "ops/operators.hh"
#include "serve/tiered_cache.hh"

namespace amos {
namespace {

TensorComputation
benchConv()
{
    return ops::resnet18ConvLayers(16)[5].build();
}

using serve::TieredCache;

/** Unique, empty store directory for one test. */
std::string
freshCacheDir(const std::string &tag)
{
    auto dir = std::filesystem::temp_directory_path() /
               ("amos_cache_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** The store as `amos_cli --cache DIR` opens it. */
TieredCache::Options
cliOptions(const std::string &dir)
{
    TieredCache::Options options;
    options.diskDir = dir;
    options.memoryCapacity = 0;
    return options;
}

CacheEntry
sampleEntry(double cycles)
{
    CacheEntry entry;
    entry.intrinsicName = "wmma_16x16x16";
    entry.mapping.groups = {{0, 3}, {1}, {4, 5}};
    entry.schedule.axes = {{2, 2}, {1, 1}, {4, 1}, {1, 1}, {1, 1}};
    entry.cycles = cycles;
    return entry;
}

std::uint64_t
counterValue(TieredCache &cache, const std::string &name)
{
    return cache.metrics().counter(name).value();
}

TEST(CacheSerialise, MappingRoundTrip)
{
    ComputeMapping mapping;
    mapping.groups = {{0, 2, 3}, {}, {4, 6}};
    auto round = mappingFromJson(
        Json::parse(mappingToJson(mapping).dump()));
    EXPECT_EQ(round.groups, mapping.groups);
}

TEST(CacheSerialise, ScheduleRoundTrip)
{
    Schedule sched;
    sched.axes = {{4, 2}, {1, 1}, {8, 1}};
    sched.stageDepth = 2;
    sched.vectorLanes = 8;
    sched.unrollDepth = 4;
    auto round = scheduleFromJson(
        Json::parse(scheduleToJson(sched).dump()));
    EXPECT_EQ(round.toString(), sched.toString());
}

TEST(CacheSerialise, RejectsCorruptEntries)
{
    EXPECT_THROW(mappingFromJson(Json::parse("{}")), PanicError);
    EXPECT_THROW(
        scheduleFromJson(Json::parse(
            R"({"axes":[{"block":0,"warp":1}],"stage":1,)"
            R"("vector":1,"unroll":1})")),
        FatalError);
}

TEST(CacheEntryTest, InstantiateRebuildsValidPlan)
{
    auto conv = benchConv();
    auto hw = hw::v100();
    CacheEntry entry;
    entry.intrinsicName = hw.primaryIntrinsic().name();
    entry.mapping.groups = {{0, 3}, {1}, {4, 5}};
    entry.schedule = Schedule{};

    auto plan = entry.instantiate(conv, hw);
    ASSERT_TRUE(plan.has_value());
    EXPECT_TRUE(plan->valid());
    EXPECT_EQ(plan->mapping().signature(conv), "[n,q | k | c,r]");
}

TEST(CacheEntryTest, InstantiateRejectsForeignEntries)
{
    auto conv = benchConv();
    auto hw = hw::v100();
    CacheEntry entry;
    entry.intrinsicName = "no_such_intrinsic";
    entry.mapping.groups = {{0}, {1}, {4}};
    EXPECT_FALSE(entry.instantiate(conv, hw).has_value());

    // Out-of-range iterator index (entry from another operator).
    entry.intrinsicName = hw.primaryIntrinsic().name();
    entry.mapping.groups = {{99}, {1}, {4}};
    EXPECT_FALSE(entry.instantiate(conv, hw).has_value());

    // Structurally invalid mapping (n and k fused).
    entry.mapping.groups = {{0, 1}, {}, {4}};
    EXPECT_FALSE(entry.instantiate(conv, hw).has_value());
}

TEST(TuningCacheTest, KeyEncodesShapeAndHardware)
{
    auto conv16 = ops::resnet18ConvLayers(16)[5].build();
    auto conv32 = ops::resnet18ConvLayers(32)[5].build();
    auto v = hw::v100();
    auto a = hw::a100();
    EXPECT_NE(TuningCache::keyFor(conv16, v),
              TuningCache::keyFor(conv32, v));
    EXPECT_NE(TuningCache::keyFor(conv16, v),
              TuningCache::keyFor(conv16, a));
    EXPECT_EQ(TuningCache::keyFor(conv16, v),
              TuningCache::keyFor(benchConv(), v));
}

TEST(TuningCacheTest, FileRoundTrip)
{
    auto dir = freshCacheDir("roundtrip");
    const CacheEntry entry = sampleEntry(12345.0);
    {
        TieredCache cache(cliOptions(dir));
        cache.put("k1", entry);
    }
    TieredCache loaded(cliOptions(dir));
    EXPECT_EQ(loaded.warm(), 1u);
    auto round = loaded.get("k1");
    ASSERT_TRUE(round.has_value());
    EXPECT_EQ(round->intrinsicName, "wmma_16x16x16");
    EXPECT_EQ(round->mapping.groups, entry.mapping.groups);
    EXPECT_EQ(round->schedule.toString(), entry.schedule.toString());
    EXPECT_DOUBLE_EQ(round->cycles, 12345.0);
    EXPECT_FALSE(loaded.get("absent").has_value());
    std::filesystem::remove_all(dir);
}

TEST(TuningCacheTest, LoadFileIfExistsHandlesMissingFile)
{
    // A --cache directory that does not exist yet is an empty store,
    // created on open.
    auto dir = freshCacheDir("missing");
    {
        TieredCache cache(cliOptions(dir));
        EXPECT_EQ(cache.warm(), 0u);
        EXPECT_TRUE(std::filesystem::is_directory(dir));
        cache.put("k", sampleEntry(1.0));
    }
    // And an existing one loads.
    TieredCache loaded(cliOptions(dir));
    EXPECT_EQ(loaded.warm(), 1u);
    EXPECT_EQ(loaded.memorySize(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(CompileWithCache, MissTunesAndPopulates)
{
    auto conv = benchConv();
    TuneOptions options;
    options.generations = 4;
    Compiler compiler(hw::v100(), options);
    auto dir = freshCacheDir("miss");
    TieredCache cache(cliOptions(dir));
    auto result = serve::compileWithCache(compiler, conv, cache);
    EXPECT_TRUE(result.tensorized);
    EXPECT_EQ(cache.diskSize(), 1u);
    EXPECT_TRUE(
        cache.get(TuningCache::keyFor(conv, hw::v100())).has_value());
    std::filesystem::remove_all(dir);
}

TEST(CompileWithCache, HitReproducesTunedLatency)
{
    auto conv = benchConv();
    TuneOptions options;
    options.generations = 4;
    Compiler compiler(hw::v100(), options);
    auto dir = freshCacheDir("hit");
    TieredCache cache(cliOptions(dir));
    auto miss = serve::compileWithCache(compiler, conv, cache);
    auto hit = serve::compileWithCache(compiler, conv, cache);
    EXPECT_TRUE(hit.tensorized);
    // The cached replay simulates the same (mapping, schedule).
    EXPECT_DOUBLE_EQ(hit.cycles, miss.cycles);
    EXPECT_EQ(hit.mappingSignature, miss.mappingSignature);
    // The hit performs no tuner measurements.
    EXPECT_EQ(hit.measurements, 0);
    EXPECT_GT(miss.measurements, 0);
    std::filesystem::remove_all(dir);
}

TEST(CompileWithCache, SurvivesSerialisationCycle)
{
    auto conv = benchConv();
    TuneOptions options;
    options.generations = 4;
    Compiler compiler(hw::v100(), options);
    auto dir = freshCacheDir("cycle");
    CompileResult first;
    {
        TieredCache cache(cliOptions(dir));
        first = serve::compileWithCache(compiler, conv, cache);
    }
    TieredCache restored(cliOptions(dir));
    EXPECT_EQ(restored.warm(), 1u);
    auto replay = serve::compileWithCache(compiler, conv, restored);
    EXPECT_EQ(replay.measurements, 0);
    EXPECT_DOUBLE_EQ(replay.cycles, first.cycles);
    std::filesystem::remove_all(dir);
}

TEST(TuningCacheTest, ConcurrentInsertLookupSameKey)
{
    // 8 threads hammer the same key with put + get; every read must
    // observe one of the written entries in full (intrinsic name,
    // mapping, and cycles from the same writer), never a torn mix.
    // Run under TSan in CI.
    auto dir = freshCacheDir("samekey");
    TieredCache cache(cliOptions(dir));
    const int threads = 8, iters = 400;
    std::atomic<bool> corrupt{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < iters; ++i) {
                CacheEntry entry;
                entry.intrinsicName = "intr_" + std::to_string(t);
                entry.mapping.groups = {
                    {static_cast<std::size_t>(t)}};
                entry.schedule.stageDepth = t + 1;
                entry.cycles = static_cast<double>(t);
                cache.put("shared", entry);
                auto got = cache.get("shared");
                if (!got) {
                    corrupt = true;
                    continue;
                }
                // Whole-entry consistency: all fields must come
                // from the same writer thread.
                int writer = static_cast<int>(got->cycles);
                if (got->intrinsicName !=
                        "intr_" + std::to_string(writer) ||
                    got->mapping.groups.size() != 1 ||
                    got->mapping.groups[0] !=
                        std::vector<std::size_t>{
                            static_cast<std::size_t>(writer)} ||
                    got->schedule.stageDepth != writer + 1)
                    corrupt = true;
                // Distinct keys must coexist untouched.
                cache.put("own_" + std::to_string(t), *got);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_FALSE(corrupt.load());
    EXPECT_EQ(cache.diskSize(), 1u + threads);

    // The hammered log reopens whole: no record was torn.
    TieredCache loaded(cliOptions(dir));
    EXPECT_EQ(loaded.warm(), 1u + threads);
    EXPECT_EQ(counterValue(loaded, "cache.disk_records_dropped"), 0u);
    auto shared = loaded.get("shared");
    ASSERT_TRUE(shared.has_value());
    int writer = static_cast<int>(shared->cycles);
    EXPECT_EQ(shared->intrinsicName,
              "intr_" + std::to_string(writer));
    EXPECT_EQ(shared->schedule.stageDepth, writer + 1);
    std::filesystem::remove_all(dir);
}

TEST(TuningCacheTest, HitMissInsertCountersTrackProbes)
{
    // The store's registry counters (cache.*, also in Prometheus)
    // count every probe and put.
    auto dir = freshCacheDir("counters");
    TieredCache cache(cliOptions(dir));
    EXPECT_EQ(counterValue(cache, "cache.memory_hits"), 0u);
    EXPECT_EQ(counterValue(cache, "cache.misses"), 0u);
    EXPECT_EQ(counterValue(cache, "cache.puts"), 0u);

    EXPECT_FALSE(cache.get("k").has_value());
    EXPECT_FALSE(cache.get("k").has_value());
    EXPECT_EQ(counterValue(cache, "cache.misses"), 2u);

    cache.put("k", sampleEntry(1.0));
    cache.put("k", sampleEntry(1.0)); // same-key rewrite still counts
    EXPECT_EQ(counterValue(cache, "cache.puts"), 2u);

    EXPECT_TRUE(cache.get("k").has_value());
    EXPECT_TRUE(cache.get("k").has_value());
    EXPECT_EQ(counterValue(cache, "cache.memory_hits"), 2u);
    EXPECT_EQ(counterValue(cache, "cache.misses"), 2u);

    // A fresh process's store answers from disk until promoted.
    TieredCache reopened(cliOptions(dir));
    EXPECT_TRUE(reopened.get("k").has_value());
    EXPECT_TRUE(reopened.get("k").has_value());
    EXPECT_EQ(counterValue(reopened, "cache.disk_hits"), 1u);
    EXPECT_EQ(counterValue(reopened, "cache.memory_hits"), 1u);
    std::filesystem::remove_all(dir);
}

TEST(TuningCacheTest, CountersAreExactUnderContention)
{
    // N threads probing one present and one absent key: totals must
    // be exact, not approximately right. Run under TSan in CI.
    auto dir = freshCacheDir("contention");
    TieredCache cache(cliOptions(dir));
    cache.put("present", sampleEntry(1.0));

    const int threads = 8, iters = 250;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&cache] {
            for (int i = 0; i < iters; ++i) {
                (void)cache.get("present");
                (void)cache.get("absent");
            }
        });
    }
    for (auto &w : workers)
        w.join();
    const auto probes = static_cast<std::uint64_t>(threads) * iters;
    EXPECT_EQ(counterValue(cache, "cache.memory_hits"), probes);
    EXPECT_EQ(counterValue(cache, "cache.misses"), probes);
    EXPECT_EQ(counterValue(cache, "cache.puts"), 1u);
    std::filesystem::remove_all(dir);
}

TEST(CompileWithCache, ConcurrentCompilersShareOneCache)
{
    // Several compiler threads resolve the same workload through one
    // cache; every result must be usable and the cache ends with one
    // entry for the workload.
    auto conv = benchConv();
    TuneOptions options;
    options.generations = 2;
    options.numThreads = 1; // threads come from the outer fan-out
    Compiler compiler(hw::v100(), options);
    auto dir = freshCacheDir("threads");
    TieredCache cache(cliOptions(dir));
    const int threads = 4;
    std::vector<CompileResult> results(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([&, t] {
            results[t] = serve::compileWithCache(compiler, conv, cache);
        });
    for (auto &w : workers)
        w.join();
    for (const auto &result : results) {
        EXPECT_TRUE(result.tensorized);
        EXPECT_GT(result.cycles, 0.0);
    }
    EXPECT_EQ(cache.diskSize(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(CompileWithCache, ConcurrentProcessesKeepEveryEntry)
{
    // Eight amos_cli --cache runs at once, one gemm shape each: every
    // process opens its own store on one directory, compiles, and
    // puts. No process's entry may be lost to another's write.
    auto dir = freshCacheDir("processes");
    const int kProcesses = 8;
    auto gemm = [](int p) { return ops::makeGemm(64 + 16 * p, 64, 64); };
    // All children start on one signal, so their compiles overlap.
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);
    std::vector<pid_t> children;
    for (int p = 0; p < kProcesses; ++p) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::close(gate[1]);
            char byte;
            while (::read(gate[0], &byte, 1) < 0 && errno == EINTR) {
            }
            TuneOptions options;
            options.generations = 2;
            options.numThreads = 1; // no pool threads in a forked child
            TieredCache cache(cliOptions(dir));
            cache.warm();
            auto result = serve::compileWithCache(
                Compiler(hw::v100(), options), gemm(p), cache);
            ::_exit(result.tensorized ? 0 : 1);
        }
        children.push_back(pid);
    }
    ::close(gate[0]);
    ::close(gate[1]);
    for (pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    TieredCache store(cliOptions(dir));
    EXPECT_EQ(store.warm(), static_cast<std::size_t>(kProcesses));
    for (int p = 0; p < kProcesses; ++p)
        EXPECT_TRUE(
            store.get(TuningCache::keyFor(gemm(p), hw::v100()))
                .has_value())
            << p;
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace amos
