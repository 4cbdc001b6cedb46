/**
 * @file
 * Fixed-size worker thread pool with a futures-based submit() API.
 *
 * The pool is the execution substrate of the experiment runtime: the
 * JobGraph scheduler feeds it ready jobs, and standalone users (e.g.
 * the CLI's parallel measure path, the `pibe serve` daemon) can submit
 * closures directly.
 *
 * Shutdown drains: stop() finishes every queued task before joining,
 * so results are never silently dropped. The destructor stops.
 *
 * parallelFor() is the data-parallel loop of the audit's per-function
 * sweeps and the PIR parser: the caller works through the chunks
 * itself, and helpers from one process-wide pool join in when they get
 * scheduled.
 */
#ifndef PIBE_RUNTIME_THREAD_POOL_H_
#define PIBE_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "support/logging.h"

namespace pibe::runtime {

/** Fixed-size thread pool. All public methods are thread-safe. */
class ThreadPool
{
  public:
    /** Spawn `num_threads` workers (clamped to at least 1). */
    explicit ThreadPool(size_t num_threads);

    /** Graceful shutdown: stop(). */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /**
     * Enqueue `fn` and return a future for its result. Exceptions
     * thrown by `fn` propagate through the future.
     * @pre stop() has not been called.
     */
    template <typename Fn>
    auto
    submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using Result = std::invoke_result_t<Fn>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<Fn>(fn));
        std::future<Result> future = task->get_future();
        post([task] { (*task)(); });
        return future;
    }

    /**
     * Stop accepting work, finish the queue and join all workers.
     * Idempotent: later calls, including the destructor's, are no-ops.
     */
    void stop();

    /** Number of worker threads. */
    size_t size() const { return threads_.size(); }

    /** Total tasks executed so far. */
    uint64_t tasksRun() const;

  private:
    void post(std::function<void()> task);
    void workerLoop();

    std::vector<std::thread> threads_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    uint64_t tasks_run_ = 0;
    bool shutting_down_ = false;
};

/**
 * Instructions per helper thread a per-function parallelFor() sweep
 * recruits (the audit's verify and lint sweeps, the parser's body
 * pass): a sweep over fewer runs on the caller alone. Each helper
 * thread that allocates gets its own glibc malloc arena, which stays
 * resident, so small modules (the 64-driver kernel and its
 * 61k-instruction image) and sandwich stages that touched a few
 * functions stay serial; the 448-driver kernel gets two helpers and a
 * 10^6-instruction module every one.
 */
inline constexpr uint64_t kInstsPerHelper = 65536;

/**
 * Helpers parallelFor() may recruit: the CPUs in this process's
 * affinity mask minus one (the caller), so `taskset -c 0` means none.
 */
size_t parallelHelpers();

/**
 * Run `body(begin, end)` over [0, n) in chunks of `grain` consecutive
 * indices (the last may be shorter), each chunk exactly once, on the
 * calling thread plus up to `helpers` workers of the process-wide
 * helper pool (clamped to parallelHelpers() and to the chunk count).
 *
 * The caller claims chunks from the same atomic cursor as the helpers
 * and returns once every chunk is done; it never waits for a helper
 * that has not started. So a call from inside a pool task (serve's,
 * the engine's, or another parallelFor's) cannot deadlock, and in a
 * fork()ed child, which has no workers, the caller runs every chunk
 * alone. The pool is created by the first call that wants helpers
 * and never destroyed, so no exit path joins a worker from inside
 * that worker. After a chunk throws, unclaimed chunks are skipped and
 * the first exception is rethrown on the caller.
 *
 * @return The sweep's work: milliseconds spent in `body`, summed over
 *         every participant. Its span is the call's wall time.
 */
double parallelFor(size_t n, size_t grain, size_t helpers,
                   const std::function<void(size_t, size_t)>& body);

} // namespace pibe::runtime

#endif // PIBE_RUNTIME_THREAD_POOL_H_
