/**
 * @file
 * Unit tests for the thread pool and parallelFor: task completion,
 * exception propagation, full index coverage, nesting, the
 * determinism of per-index RNG streams under concurrency, and the
 * fork-join team: two indices on two threads at once, concurrent
 * callers, and a fork()ed child that has no helpers.
 */

#include <gtest/gtest.h>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"

namespace amos {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([&] { ++counter; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] {});
    auto bad = pool.submit([] { fatal("task exploded"); });
    EXPECT_NO_THROW(ok.get());
    EXPECT_THROW(bad.get(), FatalError);
    // The pool survives a throwing task.
    auto after = pool.submit([] {});
    EXPECT_NO_THROW(after.get());
}

TEST(ThreadPool, RejectsEmptyTask)
{
    ThreadPool pool(1);
    EXPECT_THROW(pool.submit(std::function<void()>{}), PanicError);
}

TEST(ThreadPool, ResolveThreadsMapsZeroToHardware)
{
    EXPECT_GE(ThreadPool::resolveThreads(0), 1u);
    EXPECT_EQ(ThreadPool::resolveThreads(3), 3u);
    EXPECT_GE(ThreadPool::resolveThreads(-2), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h.store(0);
    parallelFor(n, [&](std::size_t i) { ++hits[i]; }, 8);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, ZeroAndOneIterationEdgeCases)
{
    int calls = 0;
    parallelFor(0, [&](std::size_t) { ++calls; }, 4);
    EXPECT_EQ(calls, 0);
    parallelFor(1, [&](std::size_t) { ++calls; }, 4);
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, SerialWhenOneThread)
{
    // numThreads=1 must run in index order on the calling thread.
    std::vector<std::size_t> order;
    parallelFor(16, [&](std::size_t i) { order.push_back(i); }, 1);
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, PropagatesFirstBodyException)
{
    std::atomic<int> completed{0};
    EXPECT_THROW(
        parallelFor(
            64,
            [&](std::size_t i) {
                if (i == 13)
                    fatal("body failed at 13");
                ++completed;
            },
            4),
        FatalError);
    // Remaining indices may be skipped after the failure, but no
    // body may run twice.
    EXPECT_LE(completed.load(), 63);
}

TEST(ParallelFor, NestedCallsRunInlineAndComplete)
{
    const std::size_t outer = 8, inner = 32;
    std::vector<std::atomic<int>> counts(outer);
    for (auto &c : counts)
        c.store(0);
    std::atomic<bool> saw_region_flag{false};
    parallelFor(
        outer,
        [&](std::size_t i) {
            parallelFor(
                inner,
                [&](std::size_t) {
                    if (insideParallelRegion())
                        saw_region_flag.store(true);
                    ++counts[i];
                },
                4);
        },
        4);
    for (std::size_t i = 0; i < outer; ++i)
        EXPECT_EQ(counts[i].load(), static_cast<int>(inner));
    EXPECT_TRUE(saw_region_flag.load());
}

TEST(ParallelFor, PerIndexRngStreamsAreOrderIndependent)
{
    // The tuner's determinism rests on this: draws seeded by
    // mixSeed(seed, index, step) must not depend on which thread
    // reaches an index first.
    const std::size_t n = 256;
    std::vector<std::int64_t> serial(n), parallel(n);
    for (std::size_t i = 0; i < n; ++i) {
        Rng rng(mixSeed(42, i, 7));
        serial[i] = rng.uniformInt(0, 1 << 20);
    }
    parallelFor(
        n,
        [&](std::size_t i) {
            Rng rng(mixSeed(42, i, 7));
            parallel[i] = rng.uniformInt(0, 1 << 20);
        },
        8);
    EXPECT_EQ(serial, parallel);
}

int
cpusAvailable()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (::sched_getaffinity(0, sizeof(mask), &mask) != 0)
        return 1;
    return CPU_COUNT(&mask);
}

TEST(ParallelFor, TwoIndicesRunOnTwoThreadsAtOnce)
{
    if (cpusAvailable() < 2)
        GTEST_SKIP() << "one CPU: a region has no helper to fork onto";
    // Each body waits, at most 2 s, for the other to arrive, so a
    // round passes only when both indices run at the same time. Both
    // then note their CPU: two threads time-sharing the caller's CPU
    // would meet too, but only a helper on another CPU runs beside
    // the caller. A migration may put the two on one CPU now and
    // then, so most rounds, not all, must see two CPUs.
    const int rounds = 20;
    int twoCpus = 0;
    for (int round = 0; round < rounds; ++round) {
        std::atomic<int> arrived{0}, noted{0};
        int cpu[2] = {-1, -1};
        auto waitFor = [](std::atomic<int> &count) {
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(2);
            while (count.load() < 2 &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            return count.load() == 2;
        };
        std::atomic<int> met{0};
        parallelFor(
            2,
            [&](std::size_t i) {
                arrived.fetch_add(1);
                if (!waitFor(arrived))
                    return;
                cpu[i] = ::sched_getcpu();
                noted.fetch_add(1);
                if (waitFor(noted))
                    met.fetch_add(1);
            },
            2);
        ASSERT_EQ(met.load(), 2) << "round " << round;
        twoCpus += cpu[0] != cpu[1];
    }
    EXPECT_GT(twoCpus, rounds / 2);
}

TEST(ParallelFor, ForkedChildCompletes)
{
    // Create the team in this process first: the child inherits it
    // without its helper threads and must not wait on them.
    std::atomic<int> parentHits{0};
    parallelFor(8, [&](std::size_t) { ++parentHits; }, 4);
    ASSERT_EQ(parentHits.load(), 8);

    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        std::vector<std::atomic<int>> hits(8);
        for (auto &h : hits)
            h.store(0);
        parallelFor(8, [&](std::size_t i) { ++hits[i]; }, 4);
        int wrong = 0;
        for (auto &h : hits)
            wrong += h.load() != 1;
        ::_exit(wrong == 0 ? 0 : 1);
    }
    int status = 0;
    pid_t done = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while ((done = ::waitpid(child, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (done == 0) {
        ::kill(child, SIGKILL);
        ::waitpid(child, &status, 0);
        FAIL() << "forked child hung in parallelFor";
    }
    ASSERT_EQ(done, child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ParallelFor, ConcurrentCallersAllComplete)
{
    const std::size_t callers = 8, rounds = 50, n = 64;
    std::vector<std::atomic<int>> hits(callers * rounds * n);
    for (auto &h : hits)
        h.store(0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < callers; ++c)
        threads.emplace_back([&, c] {
            for (std::size_t r = 0; r < rounds; ++r)
                parallelFor(
                    n,
                    [&](std::size_t i) {
                        ++hits[(c * rounds + r) * n + i];
                    },
                    4);
        });
    for (auto &t : threads)
        t.join();
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(MixSeed, DistinctStreamsAndSteps)
{
    std::set<std::uint64_t> seeds;
    for (std::uint64_t stream = 0; stream < 64; ++stream)
        for (std::uint64_t step = 0; step < 16; ++step)
            seeds.insert(mixSeed(2022, stream, step));
    // All (stream, step) pairs must land on distinct seeds.
    EXPECT_EQ(seeds.size(), 64u * 16u);
    EXPECT_NE(mixSeed(1, 0, 0), mixSeed(2, 0, 0));
}

} // namespace
} // namespace amos
