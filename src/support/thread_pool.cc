#include "thread_pool.hh"

#include <linux/futex.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>

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

/**
 * How long an idle helper, or a caller waiting on helpers, spins
 * before it parks on its futex word. Back-to-back regions (repeated
 * kernel executions, a tuner generation's stages) then find the
 * helper awake on its own core; a quiet helper costs a bounded burst
 * of CPU, then nothing.
 */
constexpr std::chrono::microseconds kSpin{100};

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Spin on `done` for at most kSpin; true once it held. The clock is
 * read every 64 probes, not on each one.
 */
template <typename Done>
bool
spinUntil(Done &&done)
{
    const auto until = std::chrono::steady_clock::now() + kSpin;
    for (unsigned probe = 1;; ++probe) {
        if (done())
            return true;
        cpuRelax();
        if (probe % 64 == 0 && std::chrono::steady_clock::now() >= until)
            return false;
    }
}

/**
 * Sleep while `word` holds `expected`. Returns on a wake, a changed
 * word or a spurious wake-up; callers re-check their condition.
 */
void
futexWait(std::atomic<std::uint32_t> &word, std::uint32_t expected)
{
    ::syscall(SYS_futex, reinterpret_cast<std::uint32_t *>(&word),
              FUTEX_WAIT_PRIVATE, expected, nullptr, nullptr, 0);
}

/**
 * Wake one sleeper on `word`. Only the address is used, never the
 * word, so waking a region whose caller has already returned is safe:
 * at worst a later sleeper at that address re-checks and sleeps again.
 */
void
futexWake(std::atomic<std::uint32_t> &word)
{
    ::syscall(SYS_futex, reinterpret_cast<std::uint32_t *>(&word),
              FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
}

/**
 * One parallelFor call: the loop state every participant shares. It
 * lives on the caller's stack, which is why the caller returns only
 * after every helper that took the region has left it.
 */
struct Region
{
    Region(std::size_t n, const std::function<void(std::size_t)> &body,
           std::uint64_t seq, std::string_view label)
        : n(n), body(body), seq(seq), label(label)
    {
    }

    /** Run indices until they or the loop run out (after a throw). */
    void drive()
    {
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
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    }

    /** A helper is done with the region; its last touch of it. */
    void leave()
    {
        if (holders.fetch_sub(1, std::memory_order_acq_rel) ==
            (kCallerParked | 1))
            futexWake(holders);
    }

    /** Block the caller until no helper holds the region. */
    void awaitHolders()
    {
        auto released = [this] {
            return (holders.load(std::memory_order_acquire) &
                    ~kCallerParked) == 0;
        };
        if (spinUntil(released))
            return;
        for (;;) {
            std::uint32_t held = holders.load(std::memory_order_acquire);
            if ((held & ~kCallerParked) == 0)
                return;
            if (!(held & kCallerParked) &&
                !holders.compare_exchange_weak(
                    held, held | kCallerParked,
                    std::memory_order_acq_rel))
                continue;
            futexWait(holders, held | kCallerParked);
        }
    }

    static constexpr std::uint32_t kCallerParked = 1u << 31;

    const std::size_t n;
    const std::function<void(std::size_t)> &body;
    const std::uint64_t seq;
    const std::string_view label;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    /// Helpers offered the region and not yet gone from it, plus
    /// kCallerParked while the caller sleeps on this word.
    std::atomic<std::uint32_t> holders{0};
    std::mutex errorMutex;
    std::exception_ptr error;
};

/** Marks a helper's slot while the helper runs a region; never read. */
alignas(Region) char runningTag;
Region *const kRunning = reinterpret_cast<Region *>(&runningTag);

/** One helper thread, bound to one CPU, on its own cache line. */
struct alignas(64) Helper
{
    /// The CPU the helper is bound to; -1 when binding failed.
    int cpu = -1;
    /// nullptr: free; a region: offered to the helper (the caller may
    /// still revoke it); kRunning: taken.
    std::atomic<Region *> slot{nullptr};
    /// 1 while the helper sleeps (or is about to) on this word.
    std::atomic<std::uint32_t> parked{0};
    std::thread thread;
};

/**
 * The fork-join team behind parallelFor: one helper per CPU of the
 * process's affinity mask. Created on the first call that forks and
 * never destroyed, so a parallelFor reached during static destruction
 * still finds it; its helpers end with the process.
 */
class ForkJoinTeam
{
  public:
    /** The team, or nullptr in a fork()ed child of its process. */
    static ForkJoinTeam *forThisProcess()
    {
        static ForkJoinTeam *const team = new ForkJoinTeam();
        return team->_pid == ::getpid() ? team : nullptr;
    }

    /**
     * Offer `region` to up to `extra` free helpers on CPUs other than
     * the caller's, drive it on the caller, take back the offers no
     * helper has taken yet, and wait for the rest to leave.
     */
    void run(Region &region, std::size_t extra)
    {
        const int callerCpu = ::sched_getcpu();
        std::size_t offered = 0, scanned = 0;
        for (; scanned < _size && offered < extra; ++scanned) {
            Helper &helper = _helpers[scanned];
            if ((callerCpu >= 0 && helper.cpu == callerCpu) ||
                helper.slot.load(std::memory_order_relaxed) != nullptr)
                continue;
            // Count the hold before the offer is visible: the helper
            // may finish and leave before the next line runs.
            region.holders.fetch_add(1, std::memory_order_relaxed);
            if (offer(helper, region))
                ++offered;
            else
                region.holders.fetch_sub(1, std::memory_order_relaxed);
        }
        region.drive();
        for (std::size_t h = 0; offered > 0 && h < scanned; ++h) {
            Region *mine = &region;
            if (_helpers[h].slot.load(std::memory_order_relaxed) != mine)
                continue;
            // Not taken yet: the loop is done, so take it back rather
            // than wait for the helper to be scheduled.
            if (_helpers[h].slot.compare_exchange_strong(
                    mine, nullptr, std::memory_order_acq_rel))
                region.holders.fetch_sub(1, std::memory_order_relaxed);
        }
        region.awaitHolders();
    }

  private:
    ForkJoinTeam() : _pid(::getpid())
    {
        std::vector<int> cpus;
        cpu_set_t mask;
        CPU_ZERO(&mask);
        if (::sched_getaffinity(0, sizeof(mask), &mask) == 0) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
                if (CPU_ISSET(cpu, &mask))
                    cpus.push_back(cpu);
        } else {
            cpus.assign(ThreadPool::resolveThreads(0), -1);
        }
        _size = cpus.size();
        _helpers = std::make_unique<Helper[]>(_size);
        for (std::size_t h = 0; h < _size; ++h) {
            Helper &helper = _helpers[h];
            helper.thread = std::thread([&helper] { helperLoop(helper); });
            if (cpus[h] < 0)
                continue;
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[h], &one);
            if (::pthread_setaffinity_np(helper.thread.native_handle(),
                                         sizeof(one), &one) == 0)
                helper.cpu = cpus[h];
        }
    }

    /** Hand `region` to a free helper, waking it if it is parked. */
    static bool offer(Helper &helper, Region &region)
    {
        Region *free = nullptr;
        if (!helper.slot.compare_exchange_strong(free, &region))
            return false;
        if (helper.parked.exchange(0) == 1)
            futexWake(helper.parked);
        return true;
    }

    /**
     * Wait for an offer: spin for kSpin, then park. A wake-up spins
     * again before it parks: the offer that woke the helper may have
     * been revoked, and the caller's next region is then near.
     */
    static Region *awaitOffer(Helper &helper)
    {
        Region *offered = nullptr;
        for (;;) {
            if (spinUntil([&] {
                    offered = helper.slot.load(std::memory_order_acquire);
                    return offered != nullptr;
                }))
                return offered;
            // Pairs with offer(): the helper publishes `parked` before
            // it re-reads the slot, the caller publishes the slot
            // before it reads `parked`, so one of them sees the other.
            helper.parked.store(1);
            if ((offered = helper.slot.load()) != nullptr) {
                helper.parked.store(0, std::memory_order_relaxed);
                return offered;
            }
            futexWait(helper.parked, 1);
        }
    }

    static void helperLoop(Helper &helper)
    {
        // Helpers never fork again: a nested parallelFor runs inline.
        tls_in_parallel = true;
        for (;;) {
            Region *region = awaitOffer(helper);
            // The caller may have revoked the offer meanwhile.
            if (!helper.slot.compare_exchange_strong(
                    region, kRunning, std::memory_order_acq_rel))
                continue;
            region->drive();
            helper.slot.store(nullptr, std::memory_order_release);
            region->leave();
        }
    }

    const pid_t _pid;
    std::size_t _size = 0;
    std::unique_ptr<Helper[]> _helpers;
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
    ForkJoinTeam *team = nullptr;
    if (want > 1 && !insideParallelRegion())
        team = ForkJoinTeam::forThisProcess();
    if (!team) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    // The caller's request scope fans out with the work. The label
    // outlives the region: the caller's scope is installed until
    // parallelFor returns.
    Region region(n, body, FlightScope::currentSeq(),
                  FlightScope::currentLabel());
    team->run(region, want - 1);
    if (region.error)
        std::rethrow_exception(region.error);
}

} // namespace amos
