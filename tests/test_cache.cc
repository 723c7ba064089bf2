/**
 * @file
 * Unit tests for the tuning cache: mapping/schedule serialisation
 * round-trips, entry instantiation, file persistence, and the
 * compile-with-cache fast path.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "amos/amos.hh"
#include "ops/conv_layers.hh"

namespace amos {
namespace {

TensorComputation
benchConv()
{
    return ops::resnet18ConvLayers(16)[5].build();
}

/** Leftover `<path>.tmp*` files next to `path`. */
std::size_t
tempSiblings(const std::string &path)
{
    const std::filesystem::path target(path);
    const std::string prefix = target.filename().string() + ".tmp";
    std::size_t count = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             target.parent_path()))
        if (entry.path().filename().string().rfind(prefix, 0) == 0)
            ++count;
    return count;
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
    TuningCache cache;
    CacheEntry entry;
    entry.intrinsicName = "wmma_16x16x16";
    entry.mapping.groups = {{0, 3}, {1}, {4, 5}};
    entry.schedule.axes = {{2, 2}, {1, 1}, {4, 1}, {1, 1}, {1, 1}};
    entry.cycles = 12345.0;
    cache.insert("k1", entry);

    std::string path = "/tmp/amos_cache_test.json";
    cache.saveFile(path);
    auto loaded = TuningCache::loadFile(path);
    std::remove(path.c_str());

    ASSERT_TRUE(loaded.contains("k1"));
    const auto &round = loaded.lookup("k1");
    EXPECT_EQ(round.intrinsicName, "wmma_16x16x16");
    EXPECT_EQ(round.mapping.groups, entry.mapping.groups);
    EXPECT_DOUBLE_EQ(round.cycles, 12345.0);
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_THROW(loaded.lookup("absent"), PanicError);
    EXPECT_THROW(TuningCache::loadFile("/no/such/file.json"),
                 FatalError);
}

TEST(TuningCacheTest, SaveIsAtomicAndLeavesNoTempFile)
{
    TuningCache cache;
    CacheEntry entry;
    entry.intrinsicName = "wmma_16x16x16";
    entry.mapping.groups = {{0}, {1}, {4}};
    entry.cycles = 3.0;
    cache.insert("k", entry);

    std::string path = "/tmp/amos_cache_atomic.json";
    // Overwrite an existing (stale) file: the temp-then-rename
    // protocol must replace it wholesale and clean up the temp.
    {
        std::ofstream stale(path);
        stale << "stale garbage";
    }
    cache.saveFile(path);
    EXPECT_EQ(tempSiblings(path), 0u);
    auto loaded = TuningCache::loadFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(loaded.contains("k"));
}

TEST(TuningCacheTest, ConcurrentSaversOfOnePathNeverCollide)
{
    // Two servers sharing a --cache-dir save the same file. Each
    // save must install one complete document: no throw, no torn
    // file, no temp file left behind.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("amos_cache_race_" + std::to_string(::getpid()) + ".json"))
            .string();
    const int kThreads = 8;
    const int kSaves = 25;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            TuningCache cache;
            for (int i = 0; i <= t; ++i) {
                CacheEntry entry;
                entry.intrinsicName = "wmma_16x16x16";
                entry.mapping.groups = {{0}, {1}, {4}};
                entry.cycles = static_cast<double>(t);
                cache.insert("t" + std::to_string(t) + "_" +
                                 std::to_string(i),
                             entry);
            }
            for (int i = 0; i < kSaves; ++i) {
                try {
                    cache.saveFile(path);
                } catch (const std::exception &) {
                    failures.fetch_add(1);
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(), 0);

    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    Json doc;
    ASSERT_NO_THROW(doc = Json::parse(text.str()));
    // The file is one saver's whole document: t+1 entries of t.
    auto loaded = TuningCache::fromJson(doc);
    ASSERT_GE(loaded.size(), 1u);
    const int winner = static_cast<int>(loaded.size()) - 1;
    for (int i = 0; i <= winner; ++i)
        EXPECT_TRUE(loaded.contains("t" + std::to_string(winner) +
                                    "_" + std::to_string(i)));
    EXPECT_EQ(tempSiblings(path), 0u);
    std::remove(path.c_str());
}

TEST(TuningCacheTest, LoadToleratesTruncatedFile)
{
    // A crash mid-write before the rename never corrupts the real
    // file; but a file truncated by other means must not take the
    // process down — it degrades to an empty cache.
    std::string path = "/tmp/amos_cache_truncated.json";
    {
        std::ofstream out(path);
        out << R"({"k1":{"intrinsic":"wmma_16x16x16","mapping")";
    }
    auto loaded = TuningCache::loadFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.size(), 0u);
}

TEST(TuningCacheTest, LoadSkipsCorruptEntriesKeepsGoodOnes)
{
    TuningCache cache;
    CacheEntry entry;
    entry.intrinsicName = "wmma_16x16x16";
    entry.mapping.groups = {{0}, {1}, {4}};
    entry.cycles = 9.0;
    cache.insert("good", entry);
    auto doc = cache.toJson();
    // A structurally broken sibling entry: mapping is a string.
    auto bad = Json::parse(R"({"intrinsic":"x","mapping":"?"})");
    doc.set("bad", std::move(bad));

    auto loaded = TuningCache::fromJson(doc);
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(loaded.contains("good"));
    EXPECT_FALSE(loaded.contains("bad"));
    EXPECT_DOUBLE_EQ(loaded.lookup("good").cycles, 9.0);
}

TEST(TuningCacheTest, LoadFileIfExistsHandlesMissingFile)
{
    auto cache =
        TuningCache::loadFileIfExists("/no/such/amos_cache.json");
    EXPECT_EQ(cache.size(), 0u);

    // And loads a real file when present.
    TuningCache source;
    CacheEntry entry;
    entry.intrinsicName = "wmma_16x16x16";
    entry.mapping.groups = {{0}, {1}, {4}};
    source.insert("k", entry);
    std::string path = "/tmp/amos_cache_ifexists.json";
    source.saveFile(path);
    auto loaded = TuningCache::loadFileIfExists(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.size(), 1u);
}

TEST(CompileWithCache, MissTunesAndPopulates)
{
    auto conv = benchConv();
    TuneOptions options;
    options.generations = 4;
    Compiler compiler(hw::v100(), options);
    TuningCache cache;
    auto result = compiler.compileWithCache(conv, cache);
    EXPECT_TRUE(result.tensorized);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_TRUE(
        cache.contains(TuningCache::keyFor(conv, hw::v100())));
}

TEST(CompileWithCache, HitReproducesTunedLatency)
{
    auto conv = benchConv();
    TuneOptions options;
    options.generations = 4;
    Compiler compiler(hw::v100(), options);
    TuningCache cache;
    auto miss = compiler.compileWithCache(conv, cache);
    auto hit = compiler.compileWithCache(conv, cache);
    EXPECT_TRUE(hit.tensorized);
    // The cached replay simulates the same (mapping, schedule).
    EXPECT_DOUBLE_EQ(hit.cycles, miss.cycles);
    EXPECT_EQ(hit.mappingSignature, miss.mappingSignature);
    // The hit performs no tuner measurements.
    EXPECT_EQ(hit.measurements, 0);
    EXPECT_GT(miss.measurements, 0);
}

TEST(CompileWithCache, SurvivesSerialisationCycle)
{
    auto conv = benchConv();
    TuneOptions options;
    options.generations = 4;
    Compiler compiler(hw::v100(), options);
    TuningCache cache;
    auto first = compiler.compileWithCache(conv, cache);

    std::string path = "/tmp/amos_cache_cycle.json";
    cache.saveFile(path);
    auto restored = TuningCache::loadFile(path);
    std::remove(path.c_str());

    auto replay = compiler.compileWithCache(conv, restored);
    EXPECT_DOUBLE_EQ(replay.cycles, first.cycles);
}

TEST(TuningCacheTest, TryGetCopiesUnderLock)
{
    TuningCache cache;
    EXPECT_FALSE(cache.tryGet("absent").has_value());
    CacheEntry entry;
    entry.intrinsicName = "wmma_16x16x16";
    entry.mapping.groups = {{0}, {1}, {4}};
    entry.cycles = 7.0;
    cache.insert("k", entry);
    auto got = cache.tryGet("k");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->intrinsicName, "wmma_16x16x16");
    EXPECT_DOUBLE_EQ(got->cycles, 7.0);
}

TEST(TuningCacheTest, ConcurrentInsertLookupSameKey)
{
    // 8 threads hammer the same key with insert + tryGet; every read
    // must observe one of the written entries in full (intrinsic
    // name, mapping, and cycles from the same writer), never a torn
    // mix. Run under TSan in CI.
    TuningCache cache;
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
                cache.insert("shared", std::move(entry));
                auto got = cache.tryGet("shared");
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
                cache.insert("own_" + std::to_string(t),
                             std::move(*got));
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_FALSE(corrupt.load());
    EXPECT_EQ(cache.size(), 1u + threads);

    // Round-trip the hammered cache through disk: no corruption.
    std::string path = "/tmp/amos_cache_concurrent.json";
    cache.saveFile(path);
    auto loaded = TuningCache::loadFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.size(), cache.size());
    auto shared = loaded.tryGet("shared");
    ASSERT_TRUE(shared.has_value());
    int writer = static_cast<int>(shared->cycles);
    EXPECT_EQ(shared->intrinsicName,
              "intr_" + std::to_string(writer));
    EXPECT_EQ(shared->schedule.stageDepth, writer + 1);
}

TEST(TuningCacheTest, HitMissInsertCountersTrackProbes)
{
    TuningCache cache;
    EXPECT_EQ(cache.hitCount(), 0u);
    EXPECT_EQ(cache.missCount(), 0u);
    EXPECT_EQ(cache.insertCount(), 0u);

    EXPECT_FALSE(cache.contains("k"));
    EXPECT_FALSE(cache.tryGet("k").has_value());
    EXPECT_EQ(cache.missCount(), 2u);
    EXPECT_EQ(cache.hitCount(), 0u);

    CacheEntry entry;
    entry.intrinsicName = "wmma_16x16x16";
    entry.mapping.groups = {{0}, {1}, {4}};
    cache.insert("k", entry);
    cache.insert("k", entry); // same-key rewrite still counts
    EXPECT_EQ(cache.insertCount(), 2u);

    EXPECT_TRUE(cache.contains("k"));
    EXPECT_TRUE(cache.tryGet("k").has_value());
    (void)cache.lookup("k");
    EXPECT_EQ(cache.hitCount(), 3u);
    EXPECT_EQ(cache.missCount(), 2u);
}

TEST(TuningCacheTest, CountersSurviveCopyAndMove)
{
    // Copies inherit the source's counter values (the statistics
    // describe the cached *content*'s history, not the object), and
    // then diverge independently.
    TuningCache cache;
    CacheEntry entry;
    entry.intrinsicName = "wmma_16x16x16";
    cache.insert("k", entry);
    (void)cache.tryGet("k");
    (void)cache.tryGet("absent");

    TuningCache copied(cache);
    EXPECT_EQ(copied.hitCount(), 1u);
    EXPECT_EQ(copied.missCount(), 1u);
    EXPECT_EQ(copied.insertCount(), 1u);
    (void)copied.tryGet("k");
    EXPECT_EQ(copied.hitCount(), 2u);
    EXPECT_EQ(cache.hitCount(), 1u); // the source is untouched

    TuningCache moved(std::move(copied));
    EXPECT_EQ(moved.hitCount(), 2u);
    EXPECT_EQ(moved.missCount(), 1u);
    EXPECT_EQ(moved.insertCount(), 1u);
}

TEST(TuningCacheTest, CountersAreExactUnderContention)
{
    // N threads probing disjoint keys: totals must be exact, not
    // approximately right. Run under TSan in CI.
    TuningCache cache;
    CacheEntry entry;
    entry.intrinsicName = "wmma_16x16x16";
    cache.insert("present", entry);

    const int threads = 8, iters = 250;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&cache] {
            for (int i = 0; i < iters; ++i) {
                (void)cache.tryGet("present");
                (void)cache.tryGet("absent");
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(cache.hitCount(),
              static_cast<std::uint64_t>(threads) * iters);
    EXPECT_EQ(cache.missCount(),
              static_cast<std::uint64_t>(threads) * iters);
    EXPECT_EQ(cache.insertCount(), 1u);
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
    TuningCache cache;
    const int threads = 4;
    std::vector<CompileResult> results(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([&, t] {
            results[t] = compiler.compileWithCache(conv, cache);
        });
    for (auto &w : workers)
        w.join();
    for (const auto &result : results) {
        EXPECT_TRUE(result.tensorized);
        EXPECT_GT(result.cycles, 0.0);
    }
    EXPECT_EQ(cache.size(), 1u);
}

} // namespace
} // namespace amos
