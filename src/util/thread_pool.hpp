#pragma once
// Fixed-size worker pool with a blocking task queue and a chunked
// parallel_for helper. The benchmark harnesses use it to run independent
// (scheduler, load) simulation grid points concurrently.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lcf::util {

/// A minimal thread pool. Tasks are std::function<void()>; submit()
/// returns a future for completion/exception propagation. The destructor
/// drains outstanding tasks before joining.
///
/// Nesting rule: parallel_for() must NOT be called from inside a task
/// running on the same pool. The call would block a worker waiting on
/// futures that only the (already occupied) workers can complete —
/// with every worker nested, the pool deadlocks silently. The pool
/// detects this and throws std::logic_error instead. Submitting to a
/// *different* pool from inside a task is fine.
class ThreadPool {
public:
    /// Spawn `threads` workers (0 means hardware_concurrency, min 1).
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Process-wide shared pool (hardware_concurrency workers), created
    /// on first use. sweep()/replicate()/soak-style harnesses that are
    /// called repeatedly share this instead of paying thread spawn +
    /// join on every call.
    static ThreadPool& shared();

    /// Number of worker threads.
    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// Enqueue a task; the returned future resolves when it finishes and
    /// rethrows any exception the task threw.
    template <typename F>
    std::future<void> submit(F&& fn) {
        auto task = std::make_shared<std::packaged_task<void()>>(
            std::forward<F>(fn));
        std::future<void> result = task->get_future();
        {
            std::lock_guard lock(mutex_);
            queue_.emplace([task]() { (*task)(); });
        }
        cv_.notify_one();
        return result;
    }

    /// Run fn(i) for every i in [begin, end) across the pool and wait.
    /// The range is split into at most 4 contiguous chunks per worker
    /// (one task + future per chunk, not per index), so the per-task
    /// queue/allocation overhead is amortized over the chunk. Every
    /// chunk finishes before this returns; the first exception (in
    /// chunk order) thrown by any invocation is then rethrown. Throws
    /// std::logic_error when called from inside one of this pool's own
    /// tasks (see the nesting rule above).
    void parallel_for(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t)>& fn);

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

/// Run fn(i) for every i in [begin, end) with `threads` workers: on the
/// process-wide shared() pool when threads == 0 (the "auto" default of
/// the sweep/replicate APIs), else on a transient pool of exactly
/// `threads` workers (tests pin thread counts to prove determinism).
void parallel_for_n(std::size_t threads, std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

}  // namespace lcf::util
