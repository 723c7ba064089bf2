/**
 * @file
 * Fixed-size thread pool and a parallel-for helper.
 *
 * The tuner fans candidate evaluation and simulator measurements out
 * across worker threads. The pool is deliberately simple — a shared
 * task queue behind one mutex, no work stealing — because the units
 * of work (kernel lowering + simulation, ~10-100us each) are large
 * enough that queue contention is negligible.
 *
 * Determinism contract: parallelFor() only distributes loop
 * *indices*; it makes no ordering promises between bodies. Callers
 * that need run-to-run reproducibility (everything in this repo)
 * must make each body depend only on its index — per-index RNG
 * streams, per-index output slots — and fold results together
 * serially afterwards. See docs/exploration.md.
 *
 * Observability: parallelFor propagates the caller's FlightScope
 * (request sequence number and trace label, see support/trace.hh)
 * onto every worker it borrows, so spans and log lines inside bodies
 * stay attributed to the request that forked them.
 */

#ifndef AMOS_SUPPORT_THREAD_POOL_HH
#define AMOS_SUPPORT_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace amos {

/** Fixed-size worker pool with a shared FIFO task queue. */
class ThreadPool
{
  public:
    /** @param numThreads Worker count; 0 = one per hardware thread. */
    explicit ThreadPool(std::size_t numThreads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t size() const { return _workers.size(); }

    /** Tasks enqueued and not yet picked up by a worker. */
    std::size_t queueDepth() const;

    /**
     * Enqueue a task. The returned future completes when the task
     * ran; an exception thrown by the task is captured and rethrown
     * from future::get().
     */
    std::future<void> submit(std::function<void()> task);

    /**
     * The process-wide pool used by parallelFor(), created lazily
     * with one worker per hardware thread.
     */
    static ThreadPool &global();

    /** Map a user thread-count knob: <=0 = hardware concurrency. */
    static std::size_t resolveThreads(int requested);

  private:
    void workerLoop();

    std::vector<std::thread> _workers;
    std::deque<std::packaged_task<void()>> _queue;
    mutable std::mutex _mutex;
    std::condition_variable _cv;
    bool _stopping = false;
};

/**
 * True on threads currently executing inside a parallelFor body (or
 * on pool workers). Nested parallelFor calls detect this and run
 * inline, which keeps arbitrary nesting deadlock-free.
 */
bool insideParallelRegion();

/**
 * Run body(0..n-1) across up to numThreads workers (0 = hardware
 * concurrency, 1 = plain serial loop). The calling thread
 * participates, so progress never depends on pool availability.
 * Blocks until every index completed; the first exception thrown by
 * any body is rethrown after the loop drains.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &body,
                 int numThreads = 0);

} // namespace amos

#endif // AMOS_SUPPORT_THREAD_POOL_HH
