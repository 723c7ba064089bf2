/**
 * @file
 * Fixed-size thread pool and a fork-join parallel-for.
 *
 * ThreadPool is a shared task queue behind one mutex, no work
 * stealing: CompileService runs whole requests on it, and those units
 * (a full exploration) dwarf any queue contention.
 *
 * parallelFor() does not use a ThreadPool. It forks onto a process-wide
 * team of helper threads, one bound to each CPU of the process's
 * affinity mask, created on the first call that forks. A region wakes
 * at most numThreads - 1 helpers, only ones bound to a CPU other than
 * the caller's, and the caller drives indices too. A helper spins
 * briefly after a region and then parks, so back-to-back regions find
 * it awake on its own core. See docs/execution.md.
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
 * onto every helper it borrows, so spans and log lines inside bodies
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
 * True on threads currently executing inside a parallelFor body, on
 * pool workers and on parallelFor's helpers. Nested parallelFor calls
 * detect this and run inline, which keeps arbitrary nesting
 * deadlock-free.
 */
bool insideParallelRegion();

/**
 * Run body(0..n-1) on up to numThreads threads (0 = hardware
 * concurrency, 1 = plain serial loop): the caller plus the free
 * helpers on other CPUs. The caller participates, so progress never
 * depends on helpers: a concurrent caller that finds none free, or a
 * fork()ed child of the team's process, runs the loop itself. Blocks
 * until every index completed; the first exception thrown by any
 * body is rethrown after the loop drains. Allocates nothing per call.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &body,
                 int numThreads = 0);

} // namespace amos

#endif // AMOS_SUPPORT_THREAD_POOL_HH
