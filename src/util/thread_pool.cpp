#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

namespace lcf::util {

namespace {
// Pool whose worker_loop() is running on this thread (nullptr on
// non-pool threads). Read by parallel_for to refuse nested calls that
// would deadlock the pool.
thread_local const ThreadPool* tls_running_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) {
        threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::shared() {
    static ThreadPool pool(0);
    return pool;
}

void ThreadPool::worker_loop() {
    tls_running_pool = this;
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop();
        }
        task();
    }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
    if (tls_running_pool == this) {
        // A nested call would park this worker on futures only the
        // pool's (busy) workers could resolve — a silent deadlock once
        // every worker nests. Fail fast instead.
        throw std::logic_error(
            "ThreadPool::parallel_for called from inside one of this "
            "pool's own tasks; nested parallel_for on the same pool "
            "deadlocks");
    }
    if (end <= begin) return;
    const std::size_t n = end - begin;
    const std::size_t chunks = std::min(n, size() * 4);
    const std::size_t base = n / chunks;
    const std::size_t extra = n % chunks;  // first `extra` chunks get +1
    std::vector<std::future<void>> futures;
    futures.reserve(chunks);
    std::size_t lo = begin;
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t hi = lo + base + (c < extra ? 1 : 0);
        futures.push_back(submit([lo, hi, &fn] {
            for (std::size_t i = lo; i < hi; ++i) fn(i);
        }));
        lo = hi;
    }
    // Wait for every chunk before rethrowing: a chunk still running
    // after this call unwinds would use `fn`, and whatever it captures,
    // after its owner is gone.
    std::exception_ptr first_error;
    for (auto& f : futures) {
        try {
            f.get();
        } catch (...) {
            if (!first_error) first_error = std::current_exception();
        }
    }
    if (first_error) std::rethrow_exception(first_error);
}

void parallel_for_n(std::size_t threads, std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn) {
    if (threads == 0) {
        ThreadPool::shared().parallel_for(begin, end, fn);
    } else {
        ThreadPool pool(threads);
        pool.parallel_for(begin, end, fn);
    }
}

}  // namespace lcf::util
