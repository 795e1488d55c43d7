/**
 * @file
 * Shared fixed-size work-stealing thread pool.
 *
 * All simulator parallelism funnels through one pool sized to the
 * hardware (ThreadPool::global()): Gpu::runPrograms submits per-SM
 * jobs, ExperimentRunner::runAll submits whole simulations, and wgsim
 * submits per-benchmark sweeps. A single pool keeps the host fully
 * busy without oversubscribing it the way one-OS-thread-per-SM
 * std::async did.
 *
 * Nested submission is deadlock-free by construction: each worker owns
 * a deque and steals from its siblings when drained, and a thread that
 * must block on a future calls wait(), which *helps* — it executes
 * queued tasks instead of sleeping. A pool of size 1 (or a pool task
 * that fans out sub-tasks) therefore still makes progress: the waiter
 * runs the work itself.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_annotations.hh"

namespace wg {

/** Lifetime execution counters of a pool (self-profiling). */
struct PoolStats
{
    std::uint64_t tasksExecuted = 0; ///< tasks run to completion
    double busySeconds = 0.0;        ///< summed task execution time
    std::uint64_t steals = 0;        ///< tasks taken from a sibling deque
    std::uint64_t queueDepth = 0;    ///< tasks queued, not yet started
    std::uint64_t active = 0;        ///< tasks currently executing
    unsigned threads = 0;            ///< worker-thread count
    bool draining = false;           ///< drain() has begun
};

class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 means
     *        std::thread::hardware_concurrency() (at least 1).
     */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /**
     * The process-wide pool, created on first use and sized to the
     * hardware. Every subsystem shares it so concurrent sweeps cannot
     * oversubscribe the host.
     */
    static ThreadPool& global();

    /** Worker-thread count. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Submit a nullary callable; its result arrives via the future. */
    template <typename F>
    auto submit(F&& fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        // The scope retires the task (stats, active count) as fn's
        // frame unwinds, before packaged_task stores the result, so a
        // caller whose wait() has returned sees the task counted.
        auto task = std::make_shared<std::packaged_task<R()>>(
            [this, fn = std::forward<F>(fn)]() mutable -> R {
                TaskScope scope(*this);
                return fn();
            });
        std::future<R> fut = task->get_future();
        enqueue([task]() { (*task)(); });
        return fut;
    }

    /**
     * Block until @p fut is ready, executing queued pool tasks while
     * waiting. Safe to call from inside a pool task (this is what makes
     * nested fan-out deadlock-free).
     */
    template <typename T>
    T wait(std::future<T>& fut)
    {
        helpWhile([&fut] {
            return fut.wait_for(std::chrono::seconds(0)) !=
                   std::future_status::ready;
        });
        return fut.get();
    }

    /** wait() over a whole batch, in order. */
    template <typename T>
    std::vector<T> waitAll(std::vector<std::future<T>>& futs)
    {
        std::vector<T> out;
        out.reserve(futs.size());
        for (auto& f : futs)
            out.push_back(wait(f));
        return out;
    }

    /**
     * Pop-and-run one pending task (own deque first, then steal).
     * @return false if every deque was empty.
     */
    bool tryRunOne();

    /**
     * Graceful shutdown: reject new external submissions and block
     * until every queued and running task has finished.
     *
     * Semantics chosen for a draining daemon:
     *   - External submit() calls made after drain() begins throw
     *     std::runtime_error — callers must stop feeding the pool.
     *   - Submissions from *inside* a pool task (nested fan-out, e.g. a
     *     running simulation spawning its per-SM jobs) are still
     *     accepted; rejecting them would strand in-flight work and
     *     deadlock the drain.
     *   - Safe on the leaked global() pool of a dying process: drain
     *     only waits for quiescence, it never joins worker threads, so
     *     it cannot deadlock against the intentionally-skipped
     *     destructor (the OS reclaims the workers at exit).
     *
     * Draining is terminal for the pool (there is no resume); create a
     * fresh pool for new work. Calling drain() again returns once the
     * pool is quiescent. Calling it from inside a pool task is a
     * logic error and panics (the caller's own task could never
     * finish, so quiescence would be unreachable).
     */
    void drain();

    /** True once drain() has begun. */
    bool draining() const;

    /**
     * Tasks executed and summed busy time since construction. A task
     * is counted before its future turns ready. The counters are
     * sampled independently (not a consistent snapshot);
     * utilization derived from them is a profiling estimate. Busy time
     * counts every moment once: a task that runs its children nested
     * while it waits (wait()) is charged only for the rest. Summed
     * busy time can exceed wall-clock time on a multi-worker pool —
     * utilization = busySeconds / (elapsed * size()). queueDepth,
     * active, steals, and draining are a point-in-time view taken
     * under the pool lock.
     */
    PoolStats stats() const;

  private:
    /**
     * Times one task and retires it when destroyed: adds its busy time
     * (less that of tasks run nested inside it on this thread),
     * counts it executed, and decrements the active count.
     */
    class TaskScope
    {
      public:
        explicit TaskScope(ThreadPool& pool);
        ~TaskScope();
        TaskScope(const TaskScope&) = delete;
        TaskScope& operator=(const TaskScope&) = delete;

      private:
        ThreadPool& pool_;
        std::uint64_t outer_nested_ns_;
        // Profiling start time only. wglint:allow(D1)
        std::chrono::steady_clock::time_point t0_;
    };

    void enqueue(std::function<void()> fn);
    void finishTask();
    void workerLoop(unsigned index);
    bool popTask(unsigned preferred, std::function<void()>& out)
        WG_REQUIRES(mu_);
    bool pendingLocked() const WG_REQUIRES(mu_);
    void helpWhile(const std::function<bool()>& busy);

    // One deque per worker. A coarse lock keeps the stealing protocol
    // simple (contention is negligible next to a simulation task);
    // the per-worker split still gives submit/steal locality.
    mutable Mutex mu_;
    CondVar cv_;
    std::vector<std::deque<std::function<void()>>> deques_ WG_GUARDED_BY(mu_);
    std::vector<std::thread> workers_;
    std::size_t next_ WG_GUARDED_BY(mu_) =
        0; ///< round-robin target for external submits
    bool stop_ WG_GUARDED_BY(mu_) = false;
    bool draining_ WG_GUARDED_BY(mu_) =
        false; ///< drain() begun; external submits throw
    std::size_t active_ WG_GUARDED_BY(mu_) = 0; ///< tasks currently executing
    std::uint64_t steals_ WG_GUARDED_BY(mu_) = 0; ///< cross-deque pops
    CondVar drain_cv_; ///< signalled as tasks finish

    // Self-profiling counters; relaxed atomics, the two are not a
    // consistent pair (see stats()).
    std::atomic<std::uint64_t> tasks_executed_{0};
    std::atomic<std::uint64_t> busy_ns_{0};
};

} // namespace wg

