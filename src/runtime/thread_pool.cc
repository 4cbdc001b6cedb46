#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>

#include <sched.h>
#include <unistd.h>

namespace pibe::runtime {

ThreadPool::ThreadPool(size_t num_threads)
{
    const size_t n = std::max<size_t>(1, num_threads);
    threads_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() { stop(); }

void
ThreadPool::post(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        PIBE_ASSERT(!shutting_down_,
                    "ThreadPool::submit after stop");
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (shutting_down_ && threads_.empty())
            return;
        shutting_down_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_)
        t.join();
    threads_.clear();
}

uint64_t
ThreadPool::tasksRun() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return tasks_run_;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] {
                return shutting_down_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // shutting down and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            ++tasks_run_;
        }
        task();
    }
}

namespace {

/**
 * The process-wide helper pool, or nullptr in a fork()ed child of the
 * process that created it (the child inherits the object but not its
 * threads). Created on first use and never destroyed.
 */
ThreadPool*
helperPool()
{
    static ThreadPool* const pool = new ThreadPool(parallelHelpers());
    static const pid_t owner = getpid();
    return getpid() == owner ? pool : nullptr;
}

/** One parallelFor call, shared by the caller and its helper tasks:
 *  a helper that starts after the caller returned finds no chunk left
 *  and never touches `body`. */
struct Sweep
{
    Sweep(size_t n_, size_t grain_,
          const std::function<void(size_t, size_t)>& body_)
        : n(n_), grain(grain_), chunks((n_ + grain_ - 1) / grain_),
          body(body_)
    {
    }

    /** Claim and run chunks until none is left. */
    void
    participate()
    {
        using Clock = std::chrono::steady_clock;
        for (;;) {
            const size_t c = next.fetch_add(1, std::memory_order_relaxed);
            if (c >= chunks)
                return;
            if (!failed.load(std::memory_order_relaxed)) {
                const auto t0 = Clock::now();
                try {
                    body(c * grain, std::min(n, (c + 1) * grain));
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mu);
                    if (!error)
                        error = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                }
                work_ns.fetch_add(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count(),
                    std::memory_order_relaxed);
            }
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                chunks) {
                std::lock_guard<std::mutex> lock(mu);
                all_done.notify_all();
            }
        }
    }

    const size_t n;
    const size_t grain;
    const size_t chunks;
    const std::function<void(size_t, size_t)>& body;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::atomic<bool> failed{false};
    std::atomic<int64_t> work_ns{0};
    std::mutex mu;
    std::condition_variable all_done;
    std::exception_ptr error; ///< The first chunk's exception; guarded by mu.
};

} // namespace

size_t
parallelHelpers()
{
    static const size_t helpers = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) != 0)
            return size_t{0};
        return static_cast<size_t>(std::max(CPU_COUNT(&set), 1) - 1);
    }();
    return helpers;
}

double
parallelFor(size_t n, size_t grain, size_t helpers,
            const std::function<void(size_t, size_t)>& body)
{
    if (n == 0)
        return 0;
    auto sweep = std::make_shared<Sweep>(n, std::max<size_t>(grain, 1),
                                         body);
    helpers = std::min({helpers, parallelHelpers(), sweep->chunks - 1});
    if (helpers > 0) {
        if (ThreadPool* pool = helperPool()) {
            for (size_t i = 0; i < helpers; ++i)
                pool->submit([sweep] { sweep->participate(); });
        }
    }
    sweep->participate();
    {
        std::unique_lock<std::mutex> lock(sweep->mu);
        sweep->all_done.wait(lock, [&] {
            return sweep->done.load(std::memory_order_acquire) ==
                   sweep->chunks;
        });
    }
    if (sweep->error)
        std::rethrow_exception(sweep->error);
    return static_cast<double>(sweep->work_ns.load()) / 1e6;
}

} // namespace pibe::runtime
