/**
 * @file
 * Tests for the compilation service: protocol round-trips, cache
 * tiering (memory hit, disk hit, restart warm-up; the disk log's
 * torn tail, corrupt record, crash inside compaction and two-process
 * appends, injected by fork and a rename(2) interposer), in-flight
 * coalescing under a concurrent-client hammer, deadline and
 * queue-full error paths, graceful drain, and the NDJSON server
 * loop. The hammer and drain tests run under TSan in CI.
 */

#include <gtest/gtest.h>

#include <dlfcn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "explore/tuner.hh"
#include "amos/cache.hh"
#include "explore/warm_start.hh"
#include "ops/operators.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "support/rng.hh"
#include "support/trace.hh"

namespace {

/// Exit status of a child stopped inside rename(2).
constexpr int kCrashedInRename = 42;
/// Set in a forked child: the next rename(2) exits the process, as a
/// crash between a temp-file write and its rename would.
std::atomic<bool> gCrashOnRename{false};

} // namespace

// Interposes the C library's rename for this test binary: writeFileAtomic
// (the shard compaction's rewrite) links against this definition. It
// forwards to the real rename unless a test armed the crash.
extern "C" int
rename(const char *from, const char *to) noexcept
{
    if (gCrashOnRename)
        ::_exit(kCrashedInRename);
    using RenameFn = int (*)(const char *, const char *);
    static auto real =
        reinterpret_cast<RenameFn>(::dlsym(RTLD_NEXT, "rename"));
    return real(from, to);
}

namespace amos {
namespace serve {
namespace {

/** A cheap exploration: small gemm, two generations. */
CompileRequest
fastRequest()
{
    CompileRequest req;
    req.op = "gemm";
    req.dims = {{"m", 64}, {"n", 64}, {"k", 64}};
    req.hw = "v100";
    req.generations = 2;
    return req;
}

/** An exploration slow enough to still be running mid-test. */
CompileRequest
slowRequest(int variant = 0)
{
    CompileRequest req;
    req.op = "conv2d";
    req.dims = {{"batch", 8 + variant}, {"cin", 128},
                {"cout", 128},          {"size", 28},
                {"kernel", 3}};
    req.hw = "v100";
    req.generations = 120;
    return req;
}

/** Unique scratch directory for disk-tier tests. */
std::string
freshDiskDir(const std::string &tag)
{
    auto dir = std::filesystem::temp_directory_path() /
               ("amos_serve_" + tag + "_" +
                std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

TEST(Protocol, RequestRoundTrip)
{
    CompileRequest req;
    req.id = "r42";
    req.op = "gemm";
    req.dims = {{"m", 128}, {"n", 64}, {"k", 32}};
    req.hw = "a100";
    req.generations = 5;
    req.seed = 7;
    req.deadlineMs = 250.0;
    auto round = CompileRequest::fromJson(
        Json::parse(req.toJson().dump()));
    EXPECT_EQ(round.id, "r42");
    EXPECT_EQ(round.op, "gemm");
    EXPECT_EQ(round.hw, "a100");
    EXPECT_EQ(round.dims, req.dims);
    EXPECT_EQ(round.generations, 5);
    EXPECT_EQ(round.seed, 7u);
    EXPECT_DOUBLE_EQ(round.deadlineMs, 250.0);
    EXPECT_EQ(round.cacheKey(), req.cacheKey());
}

TEST(Protocol, CacheKeySeparatesSearchKnobs)
{
    auto a = fastRequest();
    auto b = fastRequest();
    EXPECT_EQ(a.cacheKey(), b.cacheKey());
    b.generations = 3;
    EXPECT_NE(a.cacheKey(), b.cacheKey());
    b = fastRequest();
    b.seed = 1;
    EXPECT_NE(a.cacheKey(), b.cacheKey());
    b = fastRequest();
    b.hw = "a100";
    EXPECT_NE(a.cacheKey(), b.cacheKey());
    // Deadlines and threads do not change the artifact.
    b = fastRequest();
    b.deadlineMs = 9.0;
    b.numThreads = 4;
    EXPECT_EQ(a.cacheKey(), b.cacheKey());
}

TEST(Protocol, DtypeRoundTripsAndSplitsCacheKey)
{
    auto plain = fastRequest();
    // Default dtype stays off the wire so old clients and servers
    // interoperate unchanged.
    EXPECT_EQ(plain.toJson().dump().find("dtype"),
              std::string::npos);

    auto quant = fastRequest();
    quant.dtype = "u8i8";
    auto round = CompileRequest::fromJson(
        Json::parse(quant.toJson().dump()));
    EXPECT_EQ(round.dtype, "u8i8");
    // A quantized compile is a different artifact.
    EXPECT_NE(round.cacheKey(), plain.cacheKey());
    EXPECT_EQ(round.cacheKey(), quant.cacheKey());

    auto bad = fastRequest();
    bad.dtype = "fp64";
    EXPECT_THROW(bad.cacheKey(), FatalError);
}

TEST(Protocol, RejectsMalformedRequests)
{
    EXPECT_THROW(CompileRequest::fromJson(Json::parse("[1,2]")),
                 FatalError);
    EXPECT_THROW(CompileRequest::fromJson(Json::parse(
                     R"({"type":"stats"})")),
                 FatalError);
    EXPECT_THROW(CompileRequest::fromJson(Json::parse(
                     R"({"op":"gemm","m":"wide"})")),
                 FatalError);
    EXPECT_THROW(CompileRequest::fromJson(Json::parse(
                     R"({"generations":0})")),
                 FatalError);
}

TEST(Protocol, ResultJsonCarriesTheReportFields)
{
    CompileResult result;
    result.tensorized = true;
    result.cycles = 123.0;
    result.milliseconds = 0.5;
    result.gflops = 9.0;
    result.mappingsExplored = 4;
    result.measurements = 17;
    result.mappingSignature = "[n | k | c]";
    auto json = compileResultToJson(result);
    EXPECT_TRUE(json.get("tensorized").asBool());
    EXPECT_DOUBLE_EQ(json.get("cycles").asNumber(), 123.0);
    EXPECT_EQ(json.get("mappings_explored").asInt(), 4);
    EXPECT_EQ(json.get("measurements").asInt(), 17);
    EXPECT_EQ(json.get("mapping_signature").asString(),
              "[n | k | c]");
    EXPECT_FALSE(json.has("pseudo_code"));
}

TEST(Service, BadRequestsAreTypedErrors)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    auto bad_op = fastRequest();
    bad_op.op = "fft";
    auto outcome = service.serve(bad_op);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error, ErrorCode::BadRequest);

    auto bad_hw = fastRequest();
    bad_hw.hw = "tpu";
    outcome = service.serve(bad_hw);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error, ErrorCode::BadRequest);
    EXPECT_EQ(service.stats().compiles, 0u);
}

TEST(Service, RepeatHitsMemoryTierWithoutExploring)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    auto miss = service.serve(fastRequest());
    ASSERT_TRUE(miss.ok);
    EXPECT_EQ(miss.servedBy, "compile");
    EXPECT_GT(miss.result.measurements, 0);

    auto hit = service.serve(fastRequest());
    ASSERT_TRUE(hit.ok);
    EXPECT_EQ(hit.servedBy, "memory");
    // The replay performs zero tuner measurements and reproduces
    // the tuned latency bit-for-bit.
    EXPECT_EQ(hit.result.measurements, 0);
    EXPECT_DOUBLE_EQ(hit.result.cycles, miss.result.cycles);

    auto stats = service.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_EQ(stats.memoryHits, 1u);
    EXPECT_EQ(stats.latencyCount, 2u);
}

TEST(Service, HammerCoalescesIdenticalRequests)
{
    // N concurrent identical requests must trigger exactly ONE
    // exploration: whoever arrives while it runs joins it, whoever
    // arrives after it finished hits the memory tier.
    const int clients = 16;
    ServeOptions options;
    options.workers = 2;
    CompileService service(options);

    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<ServeOutcome> outcomes(clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_relaxed))
                std::this_thread::yield();
            outcomes[c] = service.serve(fastRequest());
        });
    while (ready.load() < clients)
        std::this_thread::yield();
    go.store(true);
    for (auto &t : threads)
        t.join();

    for (const auto &outcome : outcomes) {
        ASSERT_TRUE(outcome.ok) << outcome.message;
        EXPECT_TRUE(outcome.servedBy == "compile" ||
                    outcome.servedBy == "coalesced" ||
                    outcome.servedBy == "memory")
            << outcome.servedBy;
        EXPECT_GT(outcome.result.cycles, 0.0);
    }
    auto stats = service.stats();
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_EQ(stats.coalesced + stats.memoryHits,
              static_cast<std::uint64_t>(clients - 1));
    EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(clients));
}

TEST(Service, DeadlineExceededCancelsTheExploration)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    // The deadline is a quarter of an undeadlined run of the same
    // shape under another seed (a distinct cache key), timed here:
    // a fixed figure would only hold on machines of one speed.
    auto probe = slowRequest();
    probe.seed = 7;
    auto probe_start = std::chrono::steady_clock::now();
    ASSERT_TRUE(service.serve(probe).ok);
    double full_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - probe_start)
                         .count();

    auto req = slowRequest();
    req.deadlineMs = full_ms / 4.0;
    auto outcome = service.serve(req);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error, ErrorCode::DeadlineExceeded);
    EXPECT_GE(service.stats().deadlineExceeded, 1u);

    // The cancelled exploration must not have poisoned the cache:
    // a follow-up with no deadline compiles cleanly.
    auto retry = slowRequest();
    retry.generations = 1;
    auto ok = service.serve(retry);
    EXPECT_TRUE(ok.ok);
}

TEST(Service, QueueFullShedsLoad)
{
    ServeOptions options;
    options.workers = 1;
    options.maxQueue = 1;
    CompileService service(options);

    auto first = service.submit(slowRequest(0));
    // Distinct workload while the only slot is occupied: shed.
    auto shed = service.submit(slowRequest(1));
    auto shed_outcome = service.wait(shed);
    EXPECT_FALSE(shed_outcome.ok);
    EXPECT_EQ(shed_outcome.error, ErrorCode::QueueFull);

    // An identical request coalesces instead of being shed.
    auto joined = service.submit(slowRequest(0));
    auto first_outcome = service.wait(first);
    auto joined_outcome = service.wait(joined);
    EXPECT_TRUE(first_outcome.ok);
    EXPECT_TRUE(joined_outcome.ok);
    EXPECT_EQ(joined_outcome.servedBy, "coalesced");

    auto stats = service.stats();
    EXPECT_EQ(stats.rejectedQueueFull, 1u);
    EXPECT_EQ(stats.coalesced, 1u);
    EXPECT_EQ(stats.compiles, 1u);
}

TEST(Service, RestartWarmsFromDiskTier)
{
    auto dir = freshDiskDir("warm");
    auto req = fastRequest();

    {
        ServeOptions options;
        options.workers = 1;
        options.cache.diskDir = dir;
        options.cache.diskShards = 4;
        CompileService service(options);
        auto cold = service.serve(req);
        ASSERT_TRUE(cold.ok);
        EXPECT_EQ(cold.servedBy, "compile");
        service.drain(); // clean shutdown persists the disk tier
    }

    {
        // A fresh process image: the disk tier warms the memory
        // tier, so the repeated request never re-explores.
        ServeOptions options;
        options.workers = 1;
        options.cache.diskDir = dir;
        options.cache.diskShards = 4;
        CompileService service(options);
        EXPECT_GE(service.stats().warmedEntries, 1u);
        auto warm = service.serve(req);
        ASSERT_TRUE(warm.ok);
        EXPECT_EQ(warm.servedBy, "memory");
        EXPECT_EQ(service.stats().compiles, 0u);
    }

    {
        // Without warm-up the first hit is served by the disk tier
        // and promoted; the second comes from memory.
        ServeOptions options;
        options.workers = 1;
        options.cache.diskDir = dir;
        options.cache.diskShards = 4;
        options.warmOnStart = false;
        CompileService service(options);
        auto disk = service.serve(req);
        ASSERT_TRUE(disk.ok);
        EXPECT_EQ(disk.servedBy, "disk");
        auto mem = service.serve(req);
        ASSERT_TRUE(mem.ok);
        EXPECT_EQ(mem.servedBy, "memory");
        auto stats = service.stats();
        EXPECT_EQ(stats.diskHits, 1u);
        EXPECT_EQ(stats.memoryHits, 1u);
        EXPECT_EQ(stats.compiles, 0u);
    }

    std::filesystem::remove_all(dir);
}

TEST(Service, DrainFinishesInflightAndRejectsNewWork)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    auto ticket = service.submit(fastRequest());
    service.drain(); // must block until the exploration resolves

    auto outcome = service.wait(ticket);
    EXPECT_TRUE(outcome.ok);

    auto late = service.serve(fastRequest());
    EXPECT_FALSE(late.ok);
    EXPECT_EQ(late.error, ErrorCode::ShuttingDown);
}

TEST(TieredCacheTest, LruBoundHoldsAndDiskBacksEvictions)
{
    auto dir = freshDiskDir("lru");
    TieredCache::Options options;
    options.memoryCapacity = 2;
    options.diskDir = dir;
    options.diskShards = 2;
    TieredCache cache(options);

    CacheEntry entry;
    entry.intrinsicName = "wmma_16x16x16";
    entry.mapping.groups = {{0}, {1}, {4}};
    entry.cycles = 1.0;
    cache.put("a", entry);
    cache.put("b", entry);
    cache.put("c", entry); // evicts "a" from memory, not from disk
    EXPECT_EQ(cache.memorySize(), 2u);
    EXPECT_EQ(cache.diskSize(), 3u);

    TieredCache::Tier tier;
    auto got = cache.get("a", &tier);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(tier, TieredCache::Tier::Disk);
    // The disk hit was promoted.
    got = cache.get("a", &tier);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(tier, TieredCache::Tier::Memory);

    EXPECT_FALSE(cache.get("absent", &tier).has_value());
    EXPECT_EQ(tier, TieredCache::Tier::None);
    std::filesystem::remove_all(dir);
}

/** A cache entry whose cycles tell puts of one key apart. */
CacheEntry
entryWithCycles(double cycles)
{
    CacheEntry entry;
    entry.intrinsicName = "wmma_16x16x16";
    entry.mapping.groups = {{0}, {1}, {4}};
    entry.cycles = cycles;
    return entry;
}

/** A one-shard disk tier whose memory tier holds one entry. */
TieredCache::Options
oneShardOptions(const std::string &dir)
{
    TieredCache::Options options;
    options.memoryCapacity = 1;
    options.diskDir = dir;
    options.diskShards = 1;
    return options;
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::vector<std::string>
logLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::istringstream in(readWholeFile(path));
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/** Cycles the cache answers for `key` from its disk tier. */
std::optional<double>
diskCycles(TieredCache &cache, const std::string &key)
{
    TieredCache::Tier tier;
    auto got = cache.get(key, &tier);
    if (!got)
        return std::nullopt;
    EXPECT_EQ(tier, TieredCache::Tier::Disk) << key;
    return got->cycles;
}

std::uint64_t
counterValue(TieredCache &cache, const std::string &name)
{
    return cache.metrics().counter(name).value();
}

/** Exit status of a forked child, -1 when it did not exit. */
int
waitChild(pid_t pid)
{
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

TEST(TieredCacheTest, TornTailMissesOnlyItsKeyAndNextPutGetsItsOwnLine)
{
    auto dir = freshDiskDir("torn");
    const std::string log = dir + "/shard-0.ndjson";
    TieredCache writer(oneShardOptions(dir));
    writer.put("a", entryWithCycles(1.0));
    writer.put("b", entryWithCycles(2.0));
    writer.put("c", entryWithCycles(3.0));
    // A crash mid-append: "c"'s record loses its last bytes and its
    // newline.
    std::filesystem::resize_file(log,
                                 std::filesystem::file_size(log) - 10);
    {
        TieredCache reader(oneShardOptions(dir));
        EXPECT_EQ(diskCycles(reader, "a"), 1.0);
        EXPECT_EQ(diskCycles(reader, "b"), 2.0);
        EXPECT_FALSE(reader.get("c").has_value());
        EXPECT_EQ(reader.diskSize(), 2u);
    }
    // The writer indexed "c" before the log shrank: its next append
    // re-indexes, then ends the torn tail before its own record.
    testing::internal::CaptureStderr();
    writer.put("d", entryWithCycles(4.0));
    EXPECT_NE(testing::internal::GetCapturedStderr().find("torn"),
              std::string::npos);
    EXPECT_EQ(counterValue(writer, "cache.disk_records_dropped"), 1u);
    auto lines = logLines(log);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[3].find("\"d\" "), 17u) << lines[3];
    TieredCache cache(oneShardOptions(dir));
    EXPECT_EQ(diskCycles(cache, "d"), 4.0);
    EXPECT_FALSE(cache.get("c").has_value());
    EXPECT_EQ(cache.diskSize(), 3u);
    std::filesystem::remove_all(dir);
}

TEST(TieredCacheTest, FlippedByteFailsOnlyThatRecordsChecksum)
{
    auto dir = freshDiskDir("flip");
    const std::string log = dir + "/shard-0.ndjson";
    {
        TieredCache cache(oneShardOptions(dir));
        cache.put("a", entryWithCycles(1.0));
        cache.put("b", entryWithCycles(2.0));
        cache.put("c", entryWithCycles(3.0));
    }
    std::string bytes = readWholeFile(log);
    auto lines = logLines(log);
    ASSERT_EQ(lines.size(), 3u);
    // Damage one byte inside "b"'s entry: still one well-formed line.
    const std::size_t flip = lines[0].size() + 1 + lines[1].size() - 5;
    bytes[flip] = bytes[flip] == '1' ? '2' : '1';
    {
        std::ofstream out(log, std::ios::binary | std::ios::trunc);
        out << bytes;
    }

    TieredCache cache(oneShardOptions(dir));
    testing::internal::CaptureStderr();
    EXPECT_EQ(diskCycles(cache, "a"), 1.0);
    const std::string warned = testing::internal::GetCapturedStderr();
    EXPECT_NE(warned.find("corrupt record"), std::string::npos)
        << warned;
    EXPECT_FALSE(cache.get("b").has_value());
    EXPECT_EQ(diskCycles(cache, "c"), 3.0);
    EXPECT_EQ(cache.diskSize(), 2u);
    EXPECT_EQ(counterValue(cache, "cache.disk_records_dropped"), 1u);
    std::filesystem::remove_all(dir);
}

TEST(TieredCacheTest, CrashDuringCompactionKeepsTheOldLog)
{
    auto dir = freshDiskDir("compact_crash");
    const std::string log = dir + "/shard-0.ndjson";
    {
        TieredCache cache(oneShardOptions(dir));
        for (int i = 0; i < 10; ++i)
            cache.put("k" + std::to_string(i), entryWithCycles(i));
    }
    const std::string before = readWholeFile(log);
    // Ten live records: the 11th superseding put of "k0" compacts.
    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        TieredCache cache(oneShardOptions(dir));
        gCrashOnRename = true;
        for (int round = 1; round <= 11; ++round)
            cache.put("k0", entryWithCycles(100 + round));
        ::_exit(0);
    }
    ASSERT_EQ(waitChild(child), kCrashedInRename);

    // The compacted copy was written and never installed.
    std::size_t temps = 0;
    for (const auto &file : std::filesystem::directory_iterator(dir))
        temps += file.path().filename().string().find(".tmp.") !=
                 std::string::npos;
    EXPECT_EQ(temps, 1u);
    const std::string after = readWholeFile(log);
    ASSERT_GT(after.size(), before.size());
    EXPECT_EQ(after.substr(0, before.size()), before);
    EXPECT_EQ(logLines(log).size(), 21u);

    TieredCache cache(oneShardOptions(dir));
    EXPECT_EQ(cache.diskSize(), 10u);
    EXPECT_EQ(diskCycles(cache, "k0"), 111.0);
    for (int i = 1; i < 10; ++i)
        EXPECT_EQ(diskCycles(cache, "k" + std::to_string(i)),
                  static_cast<double>(i));
    std::filesystem::remove_all(dir);
}

TEST(TieredCacheTest, CompactionKeepsTheLogWithinTwiceItsLiveRecords)
{
    auto dir = freshDiskDir("compact");
    const std::string log = dir + "/shard-0.ndjson";
    TieredCache cache(oneShardOptions(dir));
    for (int round = 0; round < 100; ++round) {
        cache.put("hot", entryWithCycles(round));
        EXPECT_LE(logLines(log).size(), 2u) << "after put " << round;
    }
    EXPECT_GT(counterValue(cache, "cache.compactions"), 0u);
    EXPECT_EQ(cache.diskSize(), 1u);
    cache.put("other", entryWithCycles(-1.0)); // evicts "hot"
    EXPECT_EQ(diskCycles(cache, "hot"), 99.0);
    TieredCache fresh(oneShardOptions(dir));
    EXPECT_EQ(diskCycles(fresh, "hot"), 99.0);
    EXPECT_EQ(diskCycles(fresh, "other"), -1.0);
    std::filesystem::remove_all(dir);
}

TEST(TieredCacheTest, TwoProcessHammerLosesNoRecord)
{
    auto dir = freshDiskDir("hammer");
    TieredCache::Options options;
    options.memoryCapacity = 16;
    options.diskDir = dir;
    // Both children start on one signal, so their puts overlap.
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);
    std::vector<pid_t> children;
    for (int c = 0; c < 2; ++c) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::close(gate[1]);
            char byte;
            while (::read(gate[0], &byte, 1) < 0 && errno == EINTR) {
            }
            TieredCache cache(options);
            for (int i = 0; i < 500; ++i)
                cache.put("p" + std::to_string(c) + "_" +
                              std::to_string(i),
                          entryWithCycles(1000 * c + i));
            ::_exit(0);
        }
        children.push_back(pid);
    }
    ::close(gate[0]);
    ::close(gate[1]);
    for (pid_t pid : children)
        EXPECT_EQ(waitChild(pid), 0);

    options.memoryCapacity = 1;
    TieredCache cache(options);
    EXPECT_EQ(cache.diskSize(), 1000u);
    for (int c = 0; c < 2; ++c)
        for (int i = 0; i < 500; ++i) {
            auto key = "p" + std::to_string(c) + "_" + std::to_string(i);
            auto got = cache.get(key);
            ASSERT_TRUE(got.has_value()) << key;
            EXPECT_EQ(got->cycles, 1000.0 * c + i) << key;
        }
    EXPECT_EQ(counterValue(cache, "cache.disk_records_dropped"), 0u);
    std::filesystem::remove_all(dir);
}

TEST(TieredCacheTest, OpenInstanceSeesAnotherProcessesAppendsAndCompaction)
{
    auto dir = freshDiskDir("catchup");
    const std::string log = dir + "/shard-0.ndjson";
    auto inChild = [](const std::function<void()> &work) {
        pid_t pid = ::fork();
        if (pid == 0) {
            work();
            ::_exit(0);
        }
        return waitChild(pid);
    };

    TieredCache open(oneShardOptions(dir));
    open.put("mine", entryWithCycles(7.0));
    EXPECT_EQ(open.diskSize(), 1u);

    // Appends by another process: an index miss catches up.
    ASSERT_EQ(inChild([&] {
                  TieredCache other(oneShardOptions(dir));
                  for (int i = 0; i < 10; ++i)
                      other.put("x" + std::to_string(i),
                                entryWithCycles(i));
              }),
              0);
    EXPECT_EQ(diskCycles(open, "x3"), 3.0);

    // A compaction by another process replaces the log's inode: the
    // open instance re-indexes the new file.
    struct stat st;
    ASSERT_EQ(::stat(log.c_str(), &st), 0);
    const ino_t oldInode = st.st_ino;
    ASSERT_EQ(inChild([&] {
                  TieredCache other(oneShardOptions(dir));
                  for (int round = 0; round < 12; ++round)
                      other.put("x0", entryWithCycles(50 + round));
                  other.put("y", entryWithCycles(9.0));
              }),
              0);
    ASSERT_EQ(::stat(log.c_str(), &st), 0);
    EXPECT_NE(st.st_ino, oldInode);
    EXPECT_EQ(diskCycles(open, "y"), 9.0);
    EXPECT_EQ(diskCycles(open, "x0"), 61.0);
    EXPECT_EQ(diskCycles(open, "mine"), 7.0);
    open.put("z", entryWithCycles(8.0));

    TieredCache fresh(oneShardOptions(dir));
    EXPECT_EQ(fresh.diskSize(), 13u);
    EXPECT_EQ(diskCycles(fresh, "z"), 8.0);
    EXPECT_EQ(diskCycles(fresh, "y"), 9.0);
    std::filesystem::remove_all(dir);
}

TEST(TieredCacheTest, DiskGetReadsOneRecordAtAnyStoreSize)
{
    std::vector<std::uint64_t> readPerGet;
    for (int entries : {1000, 16000}) {
        auto dir = freshDiskDir("flat");
        TieredCache::Options options;
        options.memoryCapacity = 1;
        options.diskDir = dir;
        TieredCache cache(options);
        for (int i = 0; i < entries; ++i)
            cache.put("k" + std::to_string(i), entryWithCycles(1.0));

        // The record's length as it lies in its shard log.
        std::uint64_t recordBytes = 0;
        for (const auto &file : std::filesystem::directory_iterator(dir))
            for (const auto &line : logLines(file.path().string()))
                if (line.find("\"k0\" ") == 17)
                    recordBytes = line.size() + 1;
        ASSERT_GT(recordBytes, 0u);

        const auto before = counterValue(cache, "cache.disk_read_bytes");
        EXPECT_EQ(diskCycles(cache, "k0"), 1.0);
        readPerGet.push_back(
            counterValue(cache, "cache.disk_read_bytes") - before);
        EXPECT_EQ(readPerGet.back(), recordBytes) << entries;
        std::filesystem::remove_all(dir);
    }
    EXPECT_EQ(readPerGet[0], readPerGet[1]);
}

TEST(Server, StreamServesAndCoalescesOverNdjson)
{
    ServeOptions options;
    options.workers = 2;
    CompileService service(options);

    std::string gemm =
        R"("op":"gemm","m":64,"n":64,"k":64,"hw":"v100",)"
        R"("generations":2)";
    std::istringstream in(
        "{\"type\":\"compile\",\"id\":\"a\"," + gemm + "}\n" +
        "{\"type\":\"compile\",\"id\":\"b\"," + gemm + "}\n" +
        "not json\n"
        "{\"type\":\"stats\",\"id\":\"s\"}\n"
        "{\"type\":\"shutdown\"}\n");
    std::ostringstream out;
    int errors = serveStream(service, in, out);
    EXPECT_EQ(errors, 1); // the "not json" line

    // Responses may interleave: index them by id.
    std::map<std::string, Json> by_id;
    Json stats_line;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line);
        if (json.has("stats"))
            stats_line = json;
        else if (json.has("id"))
            by_id[json.get("id").asString()] = json;
        else
            EXPECT_FALSE(json.get("ok").asBool());
    }
    ASSERT_TRUE(by_id.count("a"));
    ASSERT_TRUE(by_id.count("b"));
    EXPECT_TRUE(by_id["a"].get("ok").asBool());
    EXPECT_TRUE(by_id["b"].get("ok").asBool());
    // One of the two identical requests compiled; the other was
    // coalesced onto it or found it in the memory tier.
    std::string sa = by_id["a"].get("served_by").asString();
    std::string sb = by_id["b"].get("served_by").asString();
    EXPECT_TRUE((sa == "compile") != (sb == "compile"))
        << sa << " / " << sb;
    EXPECT_EQ(service.stats().compiles, 1u);
    ASSERT_FALSE(stats_line.isNull());
    EXPECT_GE(stats_line.get("stats")
                  .get("requests")
                  .asInt(),
              2);
}

TEST(Server, ReplayTraceIsDeterministic)
{
    auto dir = freshDiskDir("replay");
    std::string trace_path = dir + "/trace.ndjson";
    {
        std::ofstream trace(trace_path);
        std::string gemm =
            R"({"type":"compile","op":"gemm","m":64,"n":64,)"
            R"("k":64,"hw":"v100","generations":2,"id":)";
        trace << "# cold, then repeated (must hit), then distinct\n";
        trace << gemm << "\"t1\"}\n";
        trace << gemm << "\"t2\"}\n";
        trace << R"({"type":"compile","op":"gemv","m":256,)"
              << R"("k":256,"hw":"vgemv","generations":2,)"
              << R"("id":"t3"})" << "\n";
    }

    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    std::ostringstream out;
    int failed = replayTrace(service, trace_path, out);
    EXPECT_EQ(failed, 0);

    std::vector<Json> lines;
    std::istringstream parsed(out.str());
    std::string line;
    while (std::getline(parsed, line))
        lines.push_back(Json::parse(line));
    ASSERT_EQ(lines.size(), 4u); // 3 responses + final stats
    EXPECT_EQ(lines[0].get("served_by").asString(), "compile");
    EXPECT_EQ(lines[1].get("served_by").asString(), "memory");
    EXPECT_EQ(lines[2].get("served_by").asString(), "compile");
    EXPECT_EQ(lines[3].get("stats").get("memory_hits").asInt(), 1);
    std::filesystem::remove_all(dir);
}

TEST(Protocol, TraceIdRoundTripsOutsideTheCacheKey)
{
    auto req = fastRequest();
    auto untraced_key = req.cacheKey();
    req.id = "r1";
    req.traceId = "tr-99";
    auto round = CompileRequest::fromJson(
        Json::parse(req.toJson().dump()));
    EXPECT_EQ(round.traceId, "tr-99");
    // Tracing is observability, not semantics: it must never split
    // the cache key.
    EXPECT_EQ(round.cacheKey(), untraced_key);
}

TEST(Service, TraceIdAttachesSpanTreesToResponses)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    auto req = fastRequest();
    req.id = "c1";
    req.traceId = "trace-cold";
    auto cold = service.serve(req);
    ASSERT_TRUE(cold.ok);
    EXPECT_EQ(cold.servedBy, "compile");
    ASSERT_FALSE(cold.trace.isNull());
    EXPECT_EQ(cold.trace.get("trace_id").asString(), "trace-cold");
    const auto &spans = cold.trace.get("spans");
    ASSERT_GT(spans.size(), 0u);
    // A cold compile's tree is rooted at the compile span, with the
    // exploration pipeline nested underneath.
    EXPECT_EQ(spans.at(0).get("name").asString(), "serve.compile");
    std::string dumped = cold.trace.dump();
    EXPECT_NE(dumped.find("explore.tune"), std::string::npos);

    req.traceId = "trace-warm";
    auto warm = service.serve(req);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.servedBy, "memory");
    ASSERT_FALSE(warm.trace.isNull());
    EXPECT_EQ(warm.trace.get("trace_id").asString(), "trace-warm");
    EXPECT_EQ(warm.trace.get("spans").at(0).get("name").asString(),
              "serve.cache_hit");

    // Untraced requests pay nothing and carry no tree.
    req.traceId.clear();
    auto plain = service.serve(req);
    ASSERT_TRUE(plain.ok);
    EXPECT_TRUE(plain.trace.isNull());
}

TEST(Service, StatsExposeUnifiedMetrics)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    ASSERT_TRUE(service.serve(fastRequest()).ok);
    ASSERT_TRUE(service.serve(fastRequest()).ok);

    auto stats = service.stats();
    EXPECT_EQ(stats.metrics.at("serve.requests"), 2u);
    EXPECT_EQ(stats.metrics.at("serve.compiles"), 1u);
    EXPECT_EQ(stats.metrics.at("serve.memory_hits"), 1u);
    EXPECT_EQ(stats.metrics.at("cache.misses"), 1u);
    EXPECT_EQ(stats.metrics.at("cache.memory_hits"), 1u);
    EXPECT_EQ(stats.metrics.at("cache.puts"), 1u);
    // The legacy counters and the unified registry must agree.
    EXPECT_EQ(stats.requests, stats.metrics.at("serve.requests"));
    EXPECT_EQ(stats.memoryHits,
              stats.metrics.at("serve.memory_hits"));

    auto json = stats.toJson();
    ASSERT_TRUE(json.has("metrics"));
    EXPECT_EQ(json.get("metrics").get("serve.requests").asInt(), 2);
    EXPECT_EQ(json.get("metrics").get("serve.compiles").asInt(), 1);
}

TEST(Server, OversizedLinesAreShedWithTypedErrors)
{
    // A line past the 1 MiB admission bound is answered with a typed
    // bad_request *without being parsed*; the stream then keeps
    // serving.
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    std::string huge = R"({"type":"compile","op":"gemm","id":")" +
                       std::string((1 << 20), 'x') + "\"}";
    std::istringstream in(huge + "\n" +
                          "{\"type\":\"stats\",\"id\":\"s\"}\n"
                          "{\"type\":\"shutdown\"}\n");
    std::ostringstream out;
    int errors = serveStream(service, in, out);
    EXPECT_EQ(errors, 1);

    bool saw_reject = false, saw_stats = false;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line);
        if (json.has("stats")) {
            saw_stats = true;
        } else {
            EXPECT_FALSE(json.get("ok").asBool());
            EXPECT_EQ(json.get("error").get("code").asString(),
                      "bad_request");
            EXPECT_NE(json.get("error")
                          .get("message")
                          .asString()
                          .find("exceeds"),
                      std::string::npos);
            saw_reject = true;
        }
    }
    EXPECT_TRUE(saw_reject);
    EXPECT_TRUE(saw_stats);
    EXPECT_EQ(service.stats().requests, 0u);
}

TEST(Server, MalformedInputNeverCrashesTheStream)
{
    // NDJSON robustness fuzz: random garbage, truncated requests,
    // well-formed JSON of the wrong shape, and unknown types must
    // each produce exactly one typed error response — never a crash,
    // never a dropped stream.
    const std::string valid =
        R"({"type":"compile","op":"gemm","m":64,"n":64,"k":64,)"
        R"("hw":"v100","generations":2,"id":"ok"})";

    std::vector<std::string> bad;
    // Every proper prefix of a JSON object is invalid JSON.
    for (std::size_t n = 1; n < valid.size(); n += 9)
        bad.push_back(valid.substr(0, n));
    // Deterministic printable garbage (newline-free).
    Rng rng(20260806);
    const std::string charset =
        "{}[]\",:abcdefghijklmnopqrstuvwxyz0123456789 .+-\\/";
    for (int i = 0; i < 32; ++i) {
        auto len =
            static_cast<std::size_t>(rng.uniformInt(1, 80));
        std::string junk;
        for (std::size_t j = 0; j < len; ++j)
            junk += charset[static_cast<std::size_t>(rng.uniformInt(
                0,
                static_cast<std::int64_t>(charset.size()) - 1))];
        bad.push_back(junk);
    }
    // Well-formed JSON, wrong shape or content.
    bad.push_back("[1,2,3]");
    bad.push_back("42");
    bad.push_back("\"compile\"");
    bad.push_back(R"({"type":"warp_speed"})");
    bad.push_back(R"({"type":"compile","op":"gemm","m":"wide"})");
    bad.push_back(R"({"type":"compile","generations":0})");

    std::string stream;
    for (const auto &line : bad)
        stream += line + "\n";
    stream += "{\"type\":\"stats\",\"id\":\"s\"}\n";
    stream += "{\"type\":\"shutdown\"}\n";

    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    std::istringstream in(stream);
    std::ostringstream out;
    int errors = serveStream(service, in, out);
    EXPECT_EQ(errors, static_cast<int>(bad.size()));

    std::size_t rejects = 0, stats_lines = 0;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line); // responses are valid JSON
        if (json.has("stats")) {
            ++stats_lines;
            continue;
        }
        EXPECT_FALSE(json.get("ok").asBool());
        EXPECT_EQ(json.get("error").get("code").asString(),
                  "bad_request");
        ++rejects;
    }
    EXPECT_EQ(rejects, bad.size());
    EXPECT_EQ(stats_lines, 1u);
    // Nothing malformed ever reached the service.
    EXPECT_EQ(service.stats().requests, 0u);
}

TEST(Server, ReplayTraceRejectsOversizedAndMalformedLines)
{
    auto dir = freshDiskDir("replay_fuzz");
    std::string trace_path = dir + "/trace.ndjson";
    {
        std::ofstream trace(trace_path);
        trace << "# comment survives\n";
        trace << std::string((1 << 20) + 7, 'z') << "\n";
        trace << "still not json\n";
        trace << R"({"type":"compile","op":"gemm","m":64,"n":64,)"
              << R"("k":64,"hw":"v100","generations":2,"id":"g"})"
              << "\n";
    }

    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    std::ostringstream out;
    int failed = replayTrace(service, trace_path, out);
    EXPECT_EQ(failed, 2); // oversized + malformed; the compile ran
    EXPECT_EQ(service.stats().compiles, 1u);
    std::filesystem::remove_all(dir);
}

TEST(Protocol, ExplainFlagRoundTripsOutsideTheCacheKey)
{
    auto req = fastRequest();
    auto plain_key = req.cacheKey();
    req.explain = true;

    // Explain is pure output shaping: two requests that differ only
    // in it must land on the same cache entry (and coalesce).
    EXPECT_EQ(req.cacheKey(), plain_key);

    auto json = req.toJson();
    EXPECT_TRUE(json.get("explain").asBool());
    auto round =
        CompileRequest::fromJson(Json::parse(json.dump()));
    EXPECT_TRUE(round.explain);
    EXPECT_EQ(round.cacheKey(), plain_key);

    // Absent by default, so old clients see unchanged wire output.
    EXPECT_FALSE(fastRequest().toJson().has("explain"));
}

TEST(Service, ExplainShapesBothCompileAndCacheHitResponses)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    auto req = fastRequest();
    req.explain = true;
    auto compiled = service.serve(req);
    ASSERT_TRUE(compiled.ok);
    ASSERT_FALSE(compiled.explain.isNull());
    auto verdict = compiled.explain.get("winner")
                       .get("attribution")
                       .get("bottleneck");
    EXPECT_FALSE(verdict.asString().empty());
    EXPECT_TRUE(compiled.toJson("c").has("explain"));

    // A plain request on the warm entry stays lean...
    auto lean = service.serve(fastRequest());
    ASSERT_TRUE(lean.ok);
    EXPECT_TRUE(lean.explain.isNull());
    EXPECT_FALSE(lean.toJson("l").has("explain"));

    // ...while the memory-tier replay can still explain itself.
    auto hit = service.serve(req);
    ASSERT_TRUE(hit.ok);
    EXPECT_EQ(hit.servedBy, "memory");
    ASSERT_FALSE(hit.explain.isNull());
    EXPECT_EQ(hit.explain.get("winner")
                  .get("attribution")
                  .get("bottleneck")
                  .asString(),
              verdict.asString());
}

TEST(Server, MetricsVerbSpeaksPrometheusExposition)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    std::istringstream in(
        R"({"type":"compile","op":"gemm","m":64,"n":64,"k":64,)"
        R"("hw":"v100","generations":2,"id":"c"})"
        "\n"
        R"({"type":"metrics","id":"m"})"
        "\n"
        R"({"type":"shutdown"})"
        "\n");
    std::ostringstream out;
    int errors = serveStream(service, in, out);
    EXPECT_EQ(errors, 0);

    Json metrics;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line);
        if (json.has("id") && json.get("id").asString() == "m")
            metrics = json;
    }
    ASSERT_FALSE(metrics.isNull());
    EXPECT_TRUE(metrics.get("ok").asBool());
    EXPECT_EQ(metrics.get("content_type").asString(),
              "text/plain; version=0.0.4");
    auto body = metrics.get("body").asString();
    EXPECT_NE(body.find("# TYPE amos_serve_requests_total counter"),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("amos_serve_requests_total 1"),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("amos_serve_latency_ms_count"),
              std::string::npos)
        << body;
}

TEST(Server, HealthzTracksDrainState)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    auto healthz = [&service] {
        std::istringstream in("{\"type\":\"healthz\"}\n"
                              "{\"type\":\"shutdown\"}\n");
        std::ostringstream out;
        EXPECT_EQ(serveStream(service, in, out), 0);
        std::istringstream lines(out.str());
        std::string line;
        std::getline(lines, line);
        return Json::parse(line);
    };

    // In-band the service is live; serveStream drains it when the
    // stream closes, which the next scrape must report.
    auto serving = healthz();
    EXPECT_TRUE(serving.get("ok").asBool());
    EXPECT_EQ(serving.get("status").asString(), "serving");
    EXPECT_FALSE(serving.get("draining").asBool());

    EXPECT_TRUE(service.draining());
    auto drained = healthz();
    EXPECT_EQ(drained.get("status").asString(), "draining");
    EXPECT_TRUE(drained.get("draining").asBool());
}

TEST(Server, ReplayTraceAnswersControlVerbs)
{
    auto dir = freshDiskDir("replay_verbs");
    std::string trace_path = dir + "/trace.ndjson";
    {
        std::ofstream trace(trace_path);
        trace << R"({"type":"compile","op":"gemm","m":64,"n":64,)"
              << R"("k":64,"hw":"v100","generations":2,"id":"c"})"
              << "\n";
        trace << R"({"type":"healthz","id":"h"})" << "\n";
        trace << R"({"type":"metrics","id":"m"})" << "\n";
    }

    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    std::ostringstream out;
    int failed = replayTrace(service, trace_path, out);
    EXPECT_EQ(failed, 0);

    std::map<std::string, Json> by_id;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line);
        if (json.has("id"))
            by_id[json.get("id").asString()] = json;
    }
    ASSERT_TRUE(by_id.count("c"));
    ASSERT_TRUE(by_id.count("h"));
    ASSERT_TRUE(by_id.count("m"));
    EXPECT_EQ(by_id["h"].get("status").asString(), "serving");
    EXPECT_NE(by_id["m"].get("body").asString().find(
                  "amos_serve_compiles_total"),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Service, SlowRequestYieldsPostmortemWithoutTraceId)
{
    ServeOptions options;
    options.workers = 1;
    options.slowMs = 0.001; // everything is "slow"
    CompileService service(options);

    // Nobody passed a trace_id and unscoped recording is off: the
    // request's scope alone must reconstruct the request.
    ASSERT_FALSE(FlightRecorder::global().recordsUnscoped());
    auto outcome = service.serve(fastRequest());
    ASSERT_TRUE(outcome.ok);
    EXPECT_GE(outcome.queueWaitMs, 0.0);

    auto stats = service.stats();
    EXPECT_GE(stats.slowRequests, 1u);
    EXPECT_GE(stats.slowlogRecorded, 1u);

    Json slowlog = service.slowlogJson();
    ASSERT_GE(slowlog.get("count").asInt(), 1);
    const Json &pm = slowlog.get("postmortems").at(0);
    EXPECT_EQ(pm.get("reason").asString(), "slow");
    EXPECT_EQ(pm.get("served_by").asString(), "compile");
    EXPECT_GT(pm.get("latency_ms").asNumber(), 0.0);
    EXPECT_GE(pm.get("queue_wait_ms").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(pm.get("slow_threshold_ms").asNumber(), 0.001);

    // What the request walked into at admission.
    const Json &admission = pm.get("admission");
    EXPECT_TRUE(admission.has("inflight"));
    EXPECT_TRUE(admission.has("queue_depth"));

    // What the service did while it was in flight.
    const Json &delta = pm.get("metrics_delta");
    EXPECT_GE(delta.get("serve.compiles").asInt(), 1);

    // The full span tree, straight from the flight rings: rooted at
    // serve.compile with the exploration nested inside.
    const Json &trace = pm.get("trace");
    EXPECT_GT(trace.get("flight_seq").asInt(), 0);
    const Json &spans = trace.get("spans");
    ASSERT_GE(spans.size(), 1u);
    EXPECT_EQ(spans.at(0).get("name").asString(), "serve.compile");
    const Json &children = spans.at(0).get("children");
    ASSERT_GE(children.size(), 1u);
    bool tuned = false;
    for (std::size_t i = 0; i < children.size(); ++i)
        tuned |= children.at(i).get("name").asString() ==
                 "explore.tune";
    EXPECT_TRUE(tuned);
}

/** Name, start and duration of every span in a tree, pre-order. */
void
flattenSpans(const Json &spans,
             std::multiset<std::tuple<std::string, double, double>> &out)
{
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Json &span = spans.at(i);
        out.emplace(span.get("name").asString(),
                    span.get("start_us").asNumber(),
                    span.get("dur_us").asNumber());
        if (span.has("children"))
            flattenSpans(span.get("children"), out);
    }
}

/**
 * One traced compile, forced slow: its trace_id response and its
 * slowlog postmortem are two renderings of the same ring records —
 * the same spans with the same timestamps — and both carry
 * serve.compile's full cache key and queue wait.
 */
TEST(Service, TraceAndPostmortemShareOneRecording)
{
    ServeOptions options;
    options.workers = 1;
    options.slowMs = 0.001; // everything is "slow"
    CompileService service(options);

    auto req = fastRequest();
    req.hw = "xeon";
    req.dtype = "u8i8";
    req.traceId = "fidelity";
    const std::string key =
        TuningCache::keyFor(computationFromRequest(req),
                            hardwareFromRequest(req)) +
        "/g2_s" + std::to_string(req.seed);
    auto outcome = service.serve(req);
    ASSERT_TRUE(outcome.ok);
    ASSERT_FALSE(outcome.trace.isNull());

    Json slowlog = service.slowlogJson(1);
    ASSERT_EQ(slowlog.get("postmortems").size(), 1u);
    const Json &pm_trace = slowlog.get("postmortems").at(0).get("trace");

    std::multiset<std::tuple<std::string, double, double>> traced,
        retained;
    flattenSpans(outcome.trace.get("spans"), traced);
    flattenSpans(pm_trace.get("spans"), retained);
    EXPECT_GT(traced.size(), 1u);
    EXPECT_EQ(traced, retained);

    const Json &traced_root = outcome.trace.get("spans").at(0);
    const Json &retained_root = pm_trace.get("spans").at(0);
    ASSERT_EQ(traced_root.get("name").asString(), "serve.compile");
    ASSERT_EQ(retained_root.get("name").asString(), "serve.compile");
    const Json &args = traced_root.get("args");
    EXPECT_EQ(args.get("key").asString(), key);
    ASSERT_TRUE(args.has("queue_wait_ms"));
    EXPECT_EQ(retained_root.get("args").asString(),
              "key=" + key + " queue_wait_ms=" +
                  args.get("queue_wait_ms").asString());
}

TEST(Service, ShedRequestsAreRetainedWithAdmissionState)
{
    ServeOptions options;
    options.workers = 1;
    options.maxQueue = 1;
    CompileService service(options);

    auto first = service.submit(slowRequest(0));
    auto shed = service.submit(slowRequest(1));
    auto shed_outcome = service.wait(shed);
    ASSERT_FALSE(shed_outcome.ok);
    ASSERT_EQ(shed_outcome.error, ErrorCode::QueueFull);

    Json slowlog = service.slowlogJson();
    ASSERT_GE(slowlog.get("count").asInt(), 1);
    const Json &pm = slowlog.get("postmortems").at(0);
    EXPECT_EQ(pm.get("reason").asString(), "shed");
    EXPECT_EQ(pm.get("error").get("code").asString(), "queue_full");
    // The shed request saw the saturated admission state.
    EXPECT_GE(pm.get("admission").get("inflight").asNumber(), 1.0);

    EXPECT_TRUE(service.wait(first).ok);
}

TEST(Service, SlowlogIsBoundedMostRecentFirst)
{
    ServeOptions options;
    options.workers = 1;
    options.slowMs = 0.001;
    options.slowlogSize = 2;
    CompileService service(options);

    for (int i = 0; i < 4; ++i) {
        auto req = fastRequest();
        req.dims["m"] = 64 + 16 * i; // distinct: no cache hits
        ASSERT_TRUE(service.serve(req).ok);
    }
    Json slowlog = service.slowlogJson();
    EXPECT_EQ(slowlog.get("count").asInt(), 4);
    EXPECT_EQ(slowlog.get("postmortems").size(), 2u);
    // limit=1 trims further, keeping the most recent entry.
    EXPECT_EQ(service.slowlogJson(1).get("postmortems").size(), 1u);
    EXPECT_EQ(service.stats().slowlogRecorded, 4u);
}

TEST(Service, StatsCarryWindowedSloFields)
{
    ServeOptions options;
    options.workers = 1;
    options.slowMs = 1e6; // nothing is slow; window still fills
    CompileService service(options);
    ASSERT_TRUE(service.serve(fastRequest()).ok);

    auto stats = service.stats();
    EXPECT_GE(stats.windowCount, 1u);
    EXPECT_GT(stats.windowP99Ms, 0.0);
    EXPECT_DOUBLE_EQ(stats.slowThresholdMs, 1e6);
    EXPECT_GE(stats.windowP99Ms, stats.windowP50Ms);
    EXPECT_DOUBLE_EQ(stats.sloBurnRate, 0.0);

    Json doc = stats.toJson();
    EXPECT_TRUE(doc.has("window"));
    EXPECT_TRUE(doc.has("slo"));

    auto text = service.prometheusText();
    EXPECT_NE(text.find("amos_serve_queue_wait_ms_count"),
              std::string::npos)
        << text;
    EXPECT_NE(
        text.find("# TYPE amos_serve_latency_ms_window gauge"),
        std::string::npos)
        << text;
    EXPECT_NE(
        text.find("amos_serve_latency_ms_window{quantile=\"0.99\"}"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("amos_serve_window_p99_ms"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("amos_serve_slo_burn_rate"),
              std::string::npos)
        << text;
}

TEST(Server, SlowlogVerbReturnsPostmortemsOverNdjson)
{
    // replayTrace serves synchronously, so the slowlog line is
    // guaranteed to observe the finished compile (over serveStream
    // a control verb can overtake an in-flight request).
    auto dir = freshDiskDir("slowlogverb");
    auto trace_path = dir + "/trace.ndjson";
    {
        std::ofstream trace(trace_path);
        trace << R"({"type":"compile","op":"gemm","m":64,"n":64,)"
              << R"("k":64,"hw":"v100","generations":2,"id":"c"})"
              << "\n"
              << R"({"type":"slowlog","id":"s","limit":1})" << "\n";
    }

    ServeOptions options;
    options.workers = 1;
    options.slowMs = 0.001;
    CompileService service(options);
    std::ostringstream out;
    int failed = replayTrace(service, trace_path, out);
    EXPECT_EQ(failed, 0);

    Json reply;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line);
        if (json.has("id") && json.get("id").asString() == "s")
            reply = json;
    }
    ASSERT_FALSE(reply.isNull());
    EXPECT_TRUE(reply.get("ok").asBool());
    const Json &slowlog = reply.get("slowlog");
    EXPECT_GE(slowlog.get("count").asInt(), 1);
    ASSERT_EQ(slowlog.get("postmortems").size(), 1u);
    const Json &pm = slowlog.get("postmortems").at(0);
    EXPECT_EQ(pm.get("reason").asString(), "slow");
    EXPECT_TRUE(pm.get("trace").has("spans"));
    std::filesystem::remove_all(dir);
}

TEST(Server, FlightdumpVerbWritesTheRings)
{
    auto dir = freshDiskDir("flightdump");
    auto path = dir + "/flight.json";
    auto trace_path = dir + "/trace.ndjson";
    {
        std::ofstream trace(trace_path);
        trace << R"({"type":"compile","op":"gemm","m":64,"n":64,)"
              << R"("k":64,"hw":"v100","generations":2,"id":"c"})"
              << "\n"
              << R"({"type":"flightdump","id":"f","path":")" << path
              << R"("})" << "\n"
              << R"({"type":"flightdump","id":"bad"})" << "\n";
    }

    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    std::ostringstream out;
    replayTrace(service, trace_path, out);

    std::map<std::string, Json> by_id;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line);
        if (json.has("id"))
            by_id[json.get("id").asString()] = json;
    }
    ASSERT_TRUE(by_id.count("f"));
    EXPECT_TRUE(by_id["f"].get("ok").asBool());
    const Json &dump = by_id["f"].get("flightdump");
    EXPECT_EQ(dump.get("path").asString(), path);
    EXPECT_GE(dump.get("records").asInt(), 1);

    std::ifstream file(path);
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    Json parsed = Json::parse(text);
    EXPECT_GE(parsed.get("records").size(), 1u);

    // Missing "path" is a typed protocol error, not a crash.
    ASSERT_TRUE(by_id.count("bad"));
    EXPECT_FALSE(by_id["bad"].get("ok").asBool());

    std::filesystem::remove_all(dir);
}

TEST(Protocol, WarmStartRoundTripsAndJoinsTheCacheKey)
{
    auto plain = fastRequest();
    auto warm = fastRequest();
    warm.warmStart = "neighbors";

    // Warm-started searches explore a different candidate sequence,
    // so they must not collide with cold entries...
    EXPECT_NE(warm.cacheKey(), plain.cacheKey());
    auto both = fastRequest();
    both.warmStart = "both";
    EXPECT_NE(both.cacheKey(), warm.cacheKey());

    // ...but an explicit "off" IS the cold search: historical keys
    // (and persisted caches) stay valid.
    auto off = fastRequest();
    off.warmStart = "off";
    EXPECT_EQ(off.cacheKey(), plain.cacheKey());

    auto json = warm.toJson();
    EXPECT_EQ(json.get("warm_start").asString(), "neighbors");
    auto round = CompileRequest::fromJson(Json::parse(json.dump()));
    EXPECT_EQ(round.warmStart, "neighbors");
    EXPECT_EQ(round.cacheKey(), warm.cacheKey());

    // Absent by default, so old clients see unchanged wire output.
    EXPECT_FALSE(fastRequest().toJson().has("warm_start"));
}

TEST(Protocol, RejectsUnknownWarmStartModes)
{
    auto json = fastRequest().toJson();
    json.set("warm_start", Json("banana"));
    EXPECT_THROW(CompileRequest::fromJson(json), std::exception);
}

TEST(Service, WarmStartSeedsFromTheMemoryTierAndExportsMetrics)
{
    ServeOptions options;
    options.workers = 1;
    options.warmStart = WarmStartMode::Neighbors;
    CompileService service(options);

    // First shape: empty cache, nothing to seed from.
    auto cold = service.serve(fastRequest());
    ASSERT_TRUE(cold.ok);

    // Same family, new dims: the cached winner becomes a donor.
    auto req = fastRequest();
    req.dims = {{"m", 96}, {"n", 64}, {"k", 64}};
    auto warm = service.serve(req);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.servedBy, "compile");

    auto stats = service.stats();
    EXPECT_GE(stats.metrics.at("explore.warmstart_neighbors"), 1u);
    EXPECT_GE(stats.metrics.at("explore.warmstart_seeded"), 1u);
    EXPECT_EQ(stats.metrics.at("explore.model_reloads"), 0u);

    auto body = service.prometheusText();
    EXPECT_NE(
        body.find("amos_explore_warmstart_seeded_total"),
        std::string::npos)
        << body;
    EXPECT_NE(
        body.find("amos_explore_warmstart_neighbors_total"),
        std::string::npos)
        << body;
}

TEST(Service, WarmStartModeSeparatesCacheEntries)
{
    ServeOptions options;
    options.workers = 1;
    CompileService service(options);

    auto cold = service.serve(fastRequest());
    ASSERT_TRUE(cold.ok);
    EXPECT_EQ(cold.servedBy, "compile");

    // The same shape with per-request warm-start lands on its own
    // entry (first time a compile, then a memory hit).
    auto req = fastRequest();
    req.warmStart = "neighbors";
    auto warm = service.serve(req);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.servedBy, "compile");
    auto again = service.serve(req);
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.servedBy, "memory");

    // An invalid per-request mode is a typed error, not a crash.
    auto bad = fastRequest();
    bad.warmStart = "banana";
    auto outcome = service.serve(bad);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error, ErrorCode::BadRequest);
}

/** Train a small snapshot off one exploration's measurements. */
std::string
writeSnapshot(const std::string &dir)
{
    LearnedModel model;
    TuneOptions options;
    options.generations = 3;
    options.numThreads = 1;
    options.sampleSink = &model;
    tune(ops::makeGemm(64, 64, 64), hw::v100(), options);
    model.fit();
    EXPECT_TRUE(model.trained());
    auto path = dir + "/model.json";
    model.saveFile(path);
    return path;
}

TEST(Server, ReloadModelVerbHotSwapsSnapshots)
{
    auto dir = freshDiskDir("reload_model");
    auto snapshot = writeSnapshot(dir);

    ServeOptions options;
    options.workers = 1;
    CompileService service(options);
    EXPECT_EQ(service.modelSnapshot(), nullptr);

    std::istringstream in(
        R"({"type":"reload_model","id":"r1","path":")" + snapshot +
        R"("})"
        "\n"
        R"({"type":"compile","id":"c1","op":"gemm","m":96,"n":64,)"
        R"("k":64,"hw":"v100","generations":2,)"
        R"("warm_start":"model"})"
        "\n"
        R"({"type":"reload_model","id":"r2","path":"/no/such"})"
        "\n"
        R"({"type":"reload_model","id":"r3"})"
        "\n");
    std::ostringstream out;
    serveStream(service, in, out);

    std::map<std::string, Json> by_id;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        auto json = Json::parse(line);
        if (json.has("id"))
            by_id[json.get("id").asString()] = json;
    }

    // Successful reload: structured receipt with the digest.
    ASSERT_TRUE(by_id.count("r1"));
    EXPECT_TRUE(by_id["r1"].get("ok").asBool());
    const Json &receipt = by_id["r1"].get("reload_model");
    EXPECT_EQ(receipt.get("path").asString(), snapshot);
    EXPECT_EQ(receipt.get("digest").asString().size(), 16u);
    EXPECT_GT(receipt.get("samples").asInt(), 0);

    // The swapped model served the model-mode compile.
    ASSERT_TRUE(by_id.count("c1"));
    EXPECT_TRUE(by_id["c1"].get("ok").asBool());
    ASSERT_NE(service.modelSnapshot(), nullptr);
    EXPECT_TRUE(service.modelSnapshot()->trained());

    // A bad file is a structured error — and the previous snapshot
    // stays in service.
    ASSERT_TRUE(by_id.count("r2"));
    EXPECT_FALSE(by_id["r2"].get("ok").asBool());
    EXPECT_FALSE(by_id["r2"]
                     .get("reload_model")
                     .get("error")
                     .asString()
                     .empty());
    EXPECT_NE(service.modelSnapshot(), nullptr);

    // Missing "path" is a typed protocol error.
    ASSERT_TRUE(by_id.count("r3"));
    EXPECT_FALSE(by_id["r3"].get("ok").asBool());

    auto stats = service.stats();
    EXPECT_EQ(stats.metrics.at("explore.model_reloads"), 1u);
    std::filesystem::remove_all(dir);
}

TEST(Service, PreloadsModelSnapshotOnStart)
{
    auto dir = freshDiskDir("preload_model");
    auto snapshot = writeSnapshot(dir);

    ServeOptions options;
    options.workers = 1;
    options.warmStart = WarmStartMode::Model;
    options.modelSnapshotPath = snapshot;
    CompileService service(options);
    ASSERT_NE(service.modelSnapshot(), nullptr);
    EXPECT_TRUE(service.modelSnapshot()->trained());

    auto outcome = service.serve(fastRequest());
    EXPECT_TRUE(outcome.ok);

    // A missing file degrades to analytic screening, not a crash.
    ServeOptions degraded;
    degraded.workers = 1;
    degraded.warmStart = WarmStartMode::Model;
    degraded.modelSnapshotPath = dir + "/absent.json";
    CompileService fallback(degraded);
    EXPECT_EQ(fallback.modelSnapshot(), nullptr);
    EXPECT_TRUE(fallback.serve(fastRequest()).ok);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace serve
} // namespace amos
