#include "thread_pool.hh"

#include <algorithm>
#include <atomic>

#include "logging.hh"
#include "trace.hh"

namespace amos {

namespace {

thread_local bool tls_in_parallel = false;

/** RAII flag marking the current thread as inside a parallel body. */
struct ParallelRegionGuard
{
    bool previous;

    ParallelRegionGuard() : previous(tls_in_parallel)
    {
        tls_in_parallel = true;
    }
    ~ParallelRegionGuard() { tls_in_parallel = previous; }
};

} // namespace

bool
insideParallelRegion()
{
    return tls_in_parallel;
}

ThreadPool::ThreadPool(std::size_t numThreads)
{
    if (numThreads == 0)
        numThreads = resolveThreads(0);
    _workers.reserve(numThreads);
    for (std::size_t i = 0; i < numThreads; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true;
    }
    _cv.notify_all();
    for (auto &worker : _workers)
        worker.join();
}

std::size_t
ThreadPool::queueDepth() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _queue.size();
}

std::future<void>
ThreadPool::submit(std::function<void()> task)
{
    require(static_cast<bool>(task),
            "ThreadPool::submit: empty task");
    std::packaged_task<void()> packaged(std::move(task));
    auto future = packaged.get_future();
    {
        std::lock_guard<std::mutex> lock(_mutex);
        require(!_stopping, "ThreadPool::submit after shutdown");
        _queue.push_back(std::move(packaged));
    }
    _cv.notify_one();
    return future;
}

void
ThreadPool::workerLoop()
{
    // Pool workers never fan out again: a parallelFor reached from a
    // worker runs inline, so a pool saturated with drivers can never
    // deadlock waiting on itself.
    tls_in_parallel = true;
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _cv.wait(lock,
                     [this] { return _stopping || !_queue.empty(); });
            if (_queue.empty())
                return; // stopping and drained
            task = std::move(_queue.front());
            _queue.pop_front();
        }
        task();
    }
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(resolveThreads(0));
    return pool;
}

std::size_t
ThreadPool::resolveThreads(int requested)
{
    if (requested > 0)
        return static_cast<std::size_t>(requested);
    unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? hc : 1;
}

void
parallelFor(std::size_t n,
            const std::function<void(std::size_t)> &body,
            int numThreads)
{
    if (n == 0)
        return;
    std::size_t want =
        std::min(ThreadPool::resolveThreads(numThreads), n);
    if (want <= 1 || insideParallelRegion()) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;

    // Fan the caller's request scope out with the work: spans and
    // log lines inside bodies on pool workers stay attributed to the
    // request that forked them. The label outlives the loop: the
    // caller's scope is still installed until parallelFor returns.
    const std::uint64_t seq = FlightScope::currentSeq();
    const std::string_view label = FlightScope::currentLabel();

    auto drive = [&]() {
        ParallelRegionGuard guard;
        FlightScope scope(seq, label);
        while (!failed.load(std::memory_order_relaxed)) {
            std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    // Excess helpers beyond the pool's worker count just queue and
    // find the index range exhausted; the caller thread drives too,
    // so the loop completes even on a fully busy pool.
    std::vector<std::future<void>> helpers;
    helpers.reserve(want - 1);
    for (std::size_t t = 1; t < want; ++t)
        helpers.push_back(ThreadPool::global().submit(drive));
    drive();
    for (auto &helper : helpers)
        helper.get();
    if (error)
        std::rethrow_exception(error);
}

} // namespace amos
