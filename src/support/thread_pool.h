#ifndef OVERLAP_SUPPORT_THREAD_POOL_H_
#define OVERLAP_SUPPORT_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace overlap {

/**
 * Number of worker threads to use by default: the hardware concurrency,
 * or 1 if the runtime cannot report it. Every `--threads=N` flag in the
 * difftest/bench binaries defaults to this.
 */
int64_t DefaultThreadCount();

/**
 * Deterministic per-task seed derivation (SplitMix64 mix of the base
 * seed and the task index). Parallel sweeps must derive each task's
 * randomness from (base_seed, task_index) — never from thread identity
 * or scheduling order — so a run is reproducible at any thread count.
 */
uint64_t DeriveTaskSeed(uint64_t base_seed, uint64_t task_index);

/**
 * A fixed-size worker pool with task futures.
 *
 * Tasks are executed in submission order (single FIFO queue), but
 * completion order is unspecified; callers that need ordered results
 * keep the returned futures (or use ParallelFor, which writes results
 * by index). Exceptions thrown by a task are captured in its future
 * and rethrown at get() — a throwing task never takes down a worker.
 *
 * The pool is intended for *case-level* fan-out (independent difftest
 * cases, sweep points) — the only threading tier of the oracle. It
 * must not be used for work items that block on each other: with
 * fewer threads than mutually-waiting tasks the pool deadlocks.
 */
class ThreadPool {
  public:
    /** Spawns `num_threads` workers (clamped to >= 1). */
    explicit ThreadPool(int64_t num_threads);

    /** Drains the queue (running every submitted task) and joins. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int64_t num_threads() const {
        return static_cast<int64_t>(workers_.size());
    }

    /** Enqueues `fn`; the future carries its result or its exception. */
    template <typename Fn>
    auto Submit(Fn&& fn) -> std::future<decltype(fn())> {
        using R = decltype(fn());
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<Fn>(fn));
        std::future<R> future = task->get_future();
        Enqueue([task]() { (*task)(); });
        return future;
    }

    /**
     * Runs fn(i) for i in [0, count) across the pool and blocks until
     * all complete. Results are returned indexed by i (stable order
     * regardless of which worker ran which index). The first exception,
     * by lowest index, is rethrown after all tasks finish.
     */
    template <typename Fn>
    auto ParallelFor(int64_t count, Fn&& fn)
        -> std::vector<decltype(fn(int64_t{0}))> {
        using R = decltype(fn(int64_t{0}));
        std::vector<std::future<R>> futures;
        futures.reserve(static_cast<size_t>(count));
        for (int64_t i = 0; i < count; ++i) {
            futures.push_back(Submit([&fn, i]() { return fn(i); }));
        }
        std::vector<R> results;
        results.reserve(static_cast<size_t>(count));
        std::exception_ptr first_error;
        for (auto& future : futures) {
            try {
                results.push_back(future.get());
            } catch (...) {
                if (!first_error) first_error = std::current_exception();
                results.push_back(R{});
            }
        }
        if (first_error) std::rethrow_exception(first_error);
        return results;
    }

  private:
    void Enqueue(std::function<void()> task);
    void WorkerLoop();

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> queue_;
    bool shutting_down_ = false;
    std::vector<std::thread> workers_;
};

}  // namespace overlap

#endif  // OVERLAP_SUPPORT_THREAD_POOL_H_
