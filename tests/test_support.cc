/**
 * @file
 * Unit tests for the support library: bit matrices, math helpers,
 * logging, the atomic file writer, string utilities, the seeded
 * RNG, the LRU map, the latency histogram, and the cancellation
 * token.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "support/atomic_file.hh"
#include "support/bit_matrix.hh"
#include "support/cancellation.hh"
#include "support/histogram.hh"
#include "support/logging.hh"
#include "support/lru.hh"
#include "support/math_utils.hh"
#include "support/rng.hh"
#include "support/str_utils.hh"

namespace amos {
namespace {

TEST(BitMatrix, ConstructsZeroed)
{
    BitMatrix m(3, 4);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.popcount(), 0u);
}

TEST(BitMatrix, FromRowsRoundTrips)
{
    auto m = BitMatrix::fromRows({{1, 0, 1}, {0, 1, 0}});
    EXPECT_TRUE(m.at(0, 0));
    EXPECT_FALSE(m.at(0, 1));
    EXPECT_TRUE(m.at(0, 2));
    EXPECT_TRUE(m.at(1, 1));
    EXPECT_EQ(m.popcount(), 3u);
}

TEST(BitMatrix, FromRowsRejectsRagged)
{
    EXPECT_THROW(BitMatrix::fromRows({{1, 0}, {1}}), PanicError);
}

TEST(BitMatrix, IdentityActsAsStarIdentity)
{
    auto m = BitMatrix::fromRows({{1, 0, 1}, {0, 1, 1}});
    auto id = BitMatrix::identity(3);
    EXPECT_EQ(m.star(id), m);
    EXPECT_EQ(BitMatrix::identity(2).star(m), m);
}

TEST(BitMatrix, StarIsBooleanOrOfAnds)
{
    // The paper's example structure: Z (3x3) star Y (3x7).
    auto z = BitMatrix::fromRows({{1, 0, 1}, {0, 1, 1}, {1, 1, 0}});
    auto y = BitMatrix::fromRows({
        {1, 0, 1, 1, 0, 0, 0},
        {0, 1, 0, 0, 0, 0, 0},
        {0, 0, 0, 0, 1, 1, 1},
    });
    auto x = z.star(y);
    // Row 0 of Z selects Y rows 0 and 2 (i1, r1).
    auto expected = BitMatrix::fromRows({
        {1, 0, 1, 1, 1, 1, 1},
        {0, 1, 0, 0, 1, 1, 1},
        {1, 1, 1, 1, 0, 0, 0},
    });
    EXPECT_EQ(x, expected);
}

TEST(BitMatrix, StarShapeMismatchPanics)
{
    BitMatrix a(2, 3), b(4, 2);
    EXPECT_THROW(a.star(b), PanicError);
}

TEST(BitMatrix, TransposeInvolution)
{
    auto m = BitMatrix::fromRows({{1, 0, 1}, {0, 1, 1}});
    EXPECT_EQ(m.transposed().transposed(), m);
    EXPECT_TRUE(m.transposed().at(2, 1));
}

TEST(BitMatrix, ColumnExtraction)
{
    auto m = BitMatrix::fromRows({{1, 0}, {0, 1}, {1, 1}});
    std::vector<bool> col0 = {true, false, true};
    EXPECT_EQ(m.column(0), col0);
    EXPECT_FALSE(m.columnIsZero(0));
    BitMatrix zero(2, 2);
    EXPECT_TRUE(zero.columnIsZero(1));
}

TEST(MathUtils, CeilDiv)
{
    EXPECT_EQ(ceilDiv(9, 2), 5);
    EXPECT_EQ(ceilDiv(8, 2), 4);
    EXPECT_EQ(ceilDiv(1, 16), 1);
}

TEST(MathUtils, RoundUp)
{
    EXPECT_EQ(roundUp(9, 4), 12);
    EXPECT_EQ(roundUp(8, 4), 8);
}

TEST(MathUtils, DivisorsSortedAndComplete)
{
    auto d = divisorsOf(12);
    std::vector<std::int64_t> expected = {1, 2, 3, 4, 6, 12};
    EXPECT_EQ(d, expected);
    EXPECT_EQ(divisorsOf(1), std::vector<std::int64_t>{1});
    EXPECT_THROW(divisorsOf(0), PanicError);
}

TEST(MathUtils, TileCandidatesIncludePowersOfTwoAndDivisors)
{
    auto c = tileCandidates(12);
    for (std::int64_t v : {1, 2, 3, 4, 6, 8, 12})
        EXPECT_NE(std::find(c.begin(), c.end(), v), c.end())
            << "missing " << v;
    for (auto v : c) {
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 12);
    }
}

TEST(MathUtils, TileCandidatesAreSortedDivisorsAndPowersOfTwo)
{
    // Reference: the set union the merge replaces.
    for (std::int64_t extent = 1; extent <= 3000; ++extent) {
        std::set<std::int64_t> want;
        for (auto d : divisorsOf(extent))
            want.insert(d);
        for (std::int64_t p = 1; p <= extent; p *= 2)
            want.insert(p);
        auto got = tileCandidates(extent);
        ASSERT_EQ(got, std::vector<std::int64_t>(want.begin(), want.end()))
            << "extent " << extent;
    }
}

TEST(MathUtils, FactorSplitsCoverExtent)
{
    for (const auto &split : factorSplits(12, 3)) {
        ASSERT_EQ(split.size(), 3u);
        std::int64_t covered = split[0] * split[1] * split[2];
        EXPECT_GE(covered, 12);
    }
}

TEST(MathUtils, GeometricMean)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
    EXPECT_THROW(geometricMean({1.0, -1.0}), PanicError);
}

TEST(Logging, FatalAndPanicThrowDistinctTypes)
{
    EXPECT_THROW(fatal("user error ", 42), FatalError);
    EXPECT_THROW(panic("bug ", 42), PanicError);
    EXPECT_NO_THROW(require(true, "fine"));
    EXPECT_THROW(require(false, "broken"), PanicError);
    EXPECT_THROW(expect(false, "bad input"), FatalError);
}

TEST(Logging, MessagesCarryFormattedContent)
{
    try {
        fatal("value was ", 7, " not ", 8);
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 7 not 8"),
                  std::string::npos);
    }
}

TEST(AtomicFile, ReplacesContentWholesale)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("amos_atomic_" + std::to_string(::getpid()) + ".txt"))
            .string();
    writeFileAtomic(path, "first, longer document\n");
    writeFileAtomic(path, "second\n");
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text, "second\n");
    std::remove(path.c_str());
}

/** The pid of a child that has exited and been reaped. */
pid_t
reapedPid()
{
    pid_t child = ::fork();
    if (child == 0)
        ::_exit(0);
    int status = 0;
    ::waitpid(child, &status, 0);
    return child;
}

TEST(AtomicFile, RemoveOrphanTempsKeepsALiveWritersTemp)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("amos_orphans_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const pid_t dead = reapedPid();
    ASSERT_GT(dead, 0);
    const std::string live = std::to_string(::getpid());
    const auto make = [&](const std::string &name) {
        std::ofstream(dir / name) << "x";
        return dir / name;
    };
    const auto orphan = make("doc.json.tmp." + std::to_string(dead) + ".3");
    const auto alive = make("doc.json.tmp." + live + ".0");
    const auto otherStem =
        make("other.json.tmp." + std::to_string(dead) + ".0");
    const auto notATemp = make("doc.json.tmp." + live + ".x");
    const auto target = make("doc.json");

    EXPECT_EQ(removeOrphanTemps((dir / "doc.json").string()), 1u);
    EXPECT_FALSE(std::filesystem::exists(orphan));
    EXPECT_TRUE(std::filesystem::exists(alive));
    EXPECT_TRUE(std::filesystem::exists(otherStem));
    EXPECT_TRUE(std::filesystem::exists(notATemp));
    EXPECT_TRUE(std::filesystem::exists(target));
    EXPECT_EQ(removeOrphanTemps((dir / "doc.json").string()), 0u);
    std::filesystem::remove_all(dir);
}

TEST(AtomicFile, UnwritableDirectoryIsAFatalError)
{
    EXPECT_THROW(writeFileAtomic("/nonexistent-dir/x.json", "{}"),
                 FatalError);
}

TEST(StrUtils, JoinAndPad)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(padLeft("7", 3), "  7");
    EXPECT_EQ(padRight("7", 3), "7  ");
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
}

TEST(StrUtils, TextTableAlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"x", "10"});
    t.addRow({"longer", "2"});
    std::string s = t.toString();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_THROW(t.addRow({"only-one-cell"}), PanicError);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(99), b(99);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.uniformInt(3, 9);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 9);
    }
    EXPECT_THROW(rng.uniformInt(5, 4), PanicError);
}

TEST(Rng, ChoicePicksExistingElements)
{
    Rng rng(11);
    std::vector<int> items = {1, 2, 3};
    for (int i = 0; i < 50; ++i) {
        int v = rng.choice(items);
        EXPECT_TRUE(v >= 1 && v <= 3);
    }
    std::vector<int> empty;
    EXPECT_THROW(rng.choice(empty), PanicError);
}

/**
 * Seeds for the engine-equivalence tests: small, huge and scrambled
 * values, as the tuner's mixSeed streams produce them.
 */
std::vector<std::uint64_t>
equivalenceSeeds()
{
    std::vector<std::uint64_t> seeds = {0, 1, 0x5EED, ~0ULL,
                                        0x8000000000000000ULL};
    for (std::uint64_t i = 0; seeds.size() < 1000; ++i)
        seeds.push_back(mixSeed(2022, i, i % 7));
    return seeds;
}

TEST(Rng, LazyEngineMatchesStdMt19937_64)
{
    // 2000 draws per seed cross the lazy first half-block (156), the
    // end of the first block (312) and two full re-twists (624,
    // 936, ...); every shorter stream is a prefix of these.
    static_assert(LazyMt19937_64::min() == std::mt19937_64::min());
    static_assert(LazyMt19937_64::max() == std::mt19937_64::max());
    for (auto seed : equivalenceSeeds()) {
        std::mt19937_64 ref(seed);
        LazyMt19937_64 lazy(seed);
        for (int k = 0; k < 2000; ++k) {
            auto want = ref();
            auto got = lazy();
            ASSERT_EQ(got, want) << "seed " << seed << " draw " << k;
        }
    }
}

TEST(Rng, LazyEngineMatchesAtEveryStreamLength)
{
    // A fresh stream of every length 0..2000, then one more draw: the
    // draw after a stream ends must not depend on where it ended.
    for (int len = 0; len <= 2000; ++len) {
        std::uint64_t seed = mixSeed(7, static_cast<std::uint64_t>(len), 1);
        std::mt19937_64 ref(seed);
        LazyMt19937_64 lazy(seed);
        ref.discard(static_cast<unsigned long long>(len));
        for (int k = 0; k < len; ++k)
            lazy();
        ASSERT_EQ(lazy(), ref()) << "after " << len << " draws";
    }
}

TEST(Rng, DrawsMatchStdDistributionsOverStdEngine)
{
    // Rng's uniformInt/uniformReal/shuffle sequences, interleaved as
    // the tuner interleaves them, equal the <random> distributions
    // and std::shuffle driven by std::mt19937_64.
    for (auto seed : equivalenceSeeds()) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        int rounds = static_cast<int>(seed % 13) + 1;
        for (int r = 0; r < rounds; ++r) {
            std::int64_t hi = 1 + static_cast<std::int64_t>(r * 37 % 101);
            ASSERT_EQ(rng.uniformInt(0, hi),
                      std::uniform_int_distribution<std::int64_t>(
                          0, hi)(ref))
                << "seed " << seed;
            ASSERT_EQ(rng.uniformReal(),
                      std::uniform_real_distribution<double>(0.0, 1.0)(
                          ref))
                << "seed " << seed;
            std::vector<int> got(static_cast<std::size_t>(r * 29 % 64));
            for (std::size_t i = 0; i < got.size(); ++i)
                got[i] = static_cast<int>(i);
            auto want = got;
            rng.shuffle(got);
            std::shuffle(want.begin(), want.end(), ref);
            ASSERT_EQ(got, want) << "seed " << seed;
        }
    }
}

TEST(LruMap, EvictsLeastRecentlyUsed)
{
    LruMap<std::string, int> lru(2);
    EXPECT_FALSE(lru.put("a", 1).has_value());
    EXPECT_FALSE(lru.put("b", 2).has_value());
    // Touch "a" so "b" becomes the eviction victim.
    EXPECT_EQ(lru.get("a").value(), 1);
    auto evicted = lru.put("c", 3);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, "b");
    EXPECT_FALSE(lru.get("b").has_value());
    EXPECT_TRUE(lru.contains("a"));
    EXPECT_TRUE(lru.contains("c"));
    EXPECT_EQ(lru.size(), 2u);
}

TEST(LruMap, PutOverwritesWithoutEvicting)
{
    LruMap<std::string, int> lru(2);
    lru.put("a", 1);
    lru.put("b", 2);
    EXPECT_FALSE(lru.put("a", 10).has_value());
    EXPECT_EQ(lru.get("a").value(), 10);
    EXPECT_EQ(lru.size(), 2u);
}

TEST(LruMap, ZeroCapacityIsUnbounded)
{
    LruMap<int, int> lru(0);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(lru.put(i, i).has_value());
    EXPECT_EQ(lru.size(), 100u);
}

TEST(LatencyHistogram, QuantilesBracketTheSamples)
{
    LatencyHistogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.quantileMs(0.5), 0.0);
    for (int i = 1; i <= 100; ++i)
        hist.record(static_cast<double>(i)); // 1..100 ms
    EXPECT_EQ(hist.count(), 100u);
    EXPECT_NEAR(hist.meanMs(), 50.5, 1e-9);
    // Log-bucketed estimates: within the ~25% bucket growth.
    EXPECT_NEAR(hist.quantileMs(0.50), 50.0, 15.0);
    EXPECT_NEAR(hist.quantileMs(0.95), 95.0, 25.0);
    EXPECT_LE(hist.quantileMs(0.99), 100.0);
    EXPECT_GE(hist.quantileMs(0.99), hist.quantileMs(0.50));
    auto json = hist.summaryJson();
    EXPECT_EQ(json.get("count").asInt(), 100);
    EXPECT_GT(json.get("p95_ms").asNumber(),
              json.get("p50_ms").asNumber());
}

TEST(LatencyHistogram, ClampsToObservedRange)
{
    LatencyHistogram hist;
    hist.record(3.0);
    hist.record(3.0);
    EXPECT_DOUBLE_EQ(hist.quantileMs(0.5), 3.0);
    EXPECT_DOUBLE_EQ(hist.quantileMs(0.99), 3.0);
}

TEST(SlidingWindowHistogram, EmptyWindowReportsZeros)
{
    SlidingWindowHistogram hist(60.0, 12);
    EXPECT_DOUBLE_EQ(hist.windowSeconds(), 60.0);
    EXPECT_EQ(hist.windowCountAt(0.0), 0u);
    EXPECT_DOUBLE_EQ(hist.windowMeanMsAt(0.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.windowQuantileMsAt(0.99, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.breachFractionAt(10.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.burnRateAt(10.0, 0.01, 0.0), 0.0);
    Json json = hist.summaryJsonAt(0.0);
    EXPECT_EQ(json.get("count").asInt(), 0);
    EXPECT_DOUBLE_EQ(json.get("window_s").asNumber(), 60.0);
}

TEST(SlidingWindowHistogram, WindowedQuantilesBracketSamples)
{
    SlidingWindowHistogram hist(60.0, 12);
    for (int i = 1; i <= 100; ++i)
        hist.recordAt(static_cast<double>(i), 1.0); // 1..100 ms
    EXPECT_EQ(hist.windowCountAt(1.0), 100u);
    EXPECT_NEAR(hist.windowMeanMsAt(1.0), 50.5, 1e-9);
    // Same log-bucket estimator (and tolerance) as LatencyHistogram.
    EXPECT_NEAR(hist.windowQuantileMsAt(0.50, 1.0), 50.0, 15.0);
    EXPECT_NEAR(hist.windowQuantileMsAt(0.95, 1.0), 95.0, 25.0);
    EXPECT_LE(hist.windowQuantileMsAt(0.99, 1.0), 100.0);
    Json json = hist.summaryJsonAt(1.0);
    EXPECT_EQ(json.get("count").asInt(), 100);
    EXPECT_GT(json.get("p95_ms").asNumber(),
              json.get("p50_ms").asNumber());
}

TEST(SlidingWindowHistogram, SamplesExpireWithTheWindow)
{
    SlidingWindowHistogram hist(60.0, 12);
    hist.recordAt(10.0, 0.0);
    // Still visible just inside the window...
    EXPECT_EQ(hist.windowCountAt(59.0), 1u);
    // ...gone once the epoch falls out of it.
    EXPECT_EQ(hist.windowCountAt(65.0), 0u);
    EXPECT_DOUBLE_EQ(hist.windowQuantileMsAt(0.99, 65.0), 0.0);
}

TEST(SlidingWindowHistogram, EpochSlotsRecycleWithoutLeaking)
{
    SlidingWindowHistogram hist(60.0, 12);
    hist.recordAt(5.0, 2.0);
    // 62s maps onto the same epoch slot (12 epochs of 5s); the slot
    // must be recycled, not merged with the stale contents.
    hist.recordAt(7.0, 62.0);
    EXPECT_EQ(hist.windowCountAt(62.0), 1u);
    EXPECT_DOUBLE_EQ(hist.windowMeanMsAt(62.0), 7.0);
}

TEST(SlidingWindowHistogram, BreachFractionAndBurnRate)
{
    SlidingWindowHistogram hist(60.0, 12);
    for (int i = 0; i < 90; ++i)
        hist.recordAt(1.0, 1.0);
    for (int i = 0; i < 10; ++i)
        hist.recordAt(100.0, 1.0);
    EXPECT_NEAR(hist.breachFractionAt(50.0, 1.0), 0.10, 1e-12);
    // Burning 10% of requests against a 1% budget: burn rate 10.
    EXPECT_NEAR(hist.burnRateAt(50.0, 0.01, 1.0), 10.0, 1e-9);
    // Threshold above every sample: no breach.
    EXPECT_DOUBLE_EQ(hist.breachFractionAt(1000.0, 1.0), 0.0);
    // Non-positive budget cannot divide.
    EXPECT_DOUBLE_EQ(hist.burnRateAt(50.0, 0.0, 1.0), 0.0);
}

TEST(SlidingWindowHistogram, ConcurrentRecordAndQueryHammer)
{
    SlidingWindowHistogram hist(60.0, 12);
    const int kThreads = 16;
    const int kSamples = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&hist, t] {
            for (int i = 0; i < kSamples; ++i) {
                // 0..49.9s: every epoch stays inside a 60s window.
                double at = 0.1 * static_cast<double>(i);
                hist.recordAt(static_cast<double>(t + 1), at);
                if (i % 64 == 0) { // readers race the writers
                    hist.windowQuantileMsAt(0.99, at);
                    hist.breachFractionAt(8.0, at);
                    hist.summaryJsonAt(at);
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(hist.windowCountAt(49.9),
              static_cast<std::uint64_t>(kThreads) * kSamples);
}

TEST(CancelToken, ExplicitCancel)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    token.checkpoint("work"); // no-op while live
    token.cancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_FALSE(token.deadlineExpired());
    EXPECT_THROW(token.checkpoint("work"), CancelledError);
}

TEST(CancelToken, DeadlineFires)
{
    CancelToken token;
    token.setDeadline(CancelToken::Clock::now() -
                      std::chrono::milliseconds(1));
    EXPECT_TRUE(token.deadlineExpired());
    EXPECT_TRUE(token.cancelled());
    EXPECT_THROW(token.checkpoint("work"), CancelledError);
}

TEST(CancelToken, ExtendOnlyMovesLater)
{
    CancelToken token;
    auto past =
        CancelToken::Clock::now() - std::chrono::milliseconds(1);
    auto future =
        CancelToken::Clock::now() + std::chrono::hours(1);
    token.setDeadline(past);
    token.extendDeadline(future);
    EXPECT_FALSE(token.cancelled());
    // Extending backwards is a no-op.
    token.extendDeadline(past);
    EXPECT_FALSE(token.cancelled());
    // A no-deadline joiner clears the deadline entirely.
    token.setDeadline(past);
    token.extendDeadline(CancelToken::Clock::time_point::max());
    EXPECT_FALSE(token.hasDeadline());
}

} // namespace
} // namespace amos
