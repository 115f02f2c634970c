// Tests for the thread pool: task execution, parallel_for coverage,
// exception propagation, and clean shutdown with queued work.

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace lcf::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i) {
        futures.push_back(pool.submit([&counter] { ++counter; }));
    }
    for (auto& f : futures) f.get();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(500);
    pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, ParallelForEmptyRange) {
    ThreadPool pool(2);
    int calls = 0;
    pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
    ThreadPool pool(2);
    auto f = pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ExceptionPropagatesThroughParallelFor) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(0, 10,
                                   [](std::size_t i) {
                                       if (i == 3) {
                                           throw std::runtime_error("boom");
                                       }
                                   }),
                 std::runtime_error);
}

TEST(ThreadPool, ParallelForWaitsForEveryChunkBeforeRethrowing) {
    // Eight indices on two workers: one index per chunk. Index 0 throws
    // at once; the others are still sleeping when its future resolves.
    // parallel_for must not unwind (destroying whatever fn captures)
    // until all of them finished.
    ThreadPool pool(2);
    std::atomic<int> finished{0};
    EXPECT_THROW(pool.parallel_for(0, 8,
                                   [&](std::size_t i) {
                                       if (i == 0) {
                                           throw std::runtime_error("boom");
                                       }
                                       std::this_thread::sleep_for(
                                           std::chrono::milliseconds(20));
                                       ++finished;
                                   }),
                 std::runtime_error);
    EXPECT_EQ(finished.load(), 7);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
    std::atomic<int> counter{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 50; ++i) {
            pool.submit([&counter] { ++counter; });
        }
        // Destructor must wait for all 50.
    }
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SizeReportsWorkers) {
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    ThreadPool defaulted(0);
    EXPECT_GE(defaulted.size(), 1u);
}

TEST(ThreadPool, NestedParallelForOnSamePoolThrows) {
    // A parallel_for from inside one of the pool's own tasks would park
    // the worker on futures only the (busy) workers can complete — the
    // pool must refuse instead of deadlocking silently.
    ThreadPool pool(2);
    auto f = pool.submit([&pool] {
        pool.parallel_for(0, 4, [](std::size_t) {});
    });
    EXPECT_THROW(f.get(), std::logic_error);
}

TEST(ThreadPool, ParallelForOnDifferentPoolFromTaskIsAllowed) {
    ThreadPool outer(2);
    ThreadPool inner(2);
    std::atomic<int> hits{0};
    auto f = outer.submit([&inner, &hits] {
        inner.parallel_for(0, 8, [&hits](std::size_t) { ++hits; });
    });
    f.get();
    EXPECT_EQ(hits.load(), 8);
}

TEST(ThreadPool, SharedPoolIsReusedAcrossCalls) {
    ThreadPool& a = ThreadPool::shared();
    ThreadPool& b = ThreadPool::shared();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.size(), 1u);
    std::atomic<int> hits{0};
    a.parallel_for(0, 100, [&hits](std::size_t) { ++hits; });
    EXPECT_EQ(hits.load(), 100);
}

TEST(ThreadPool, ParallelForNZeroUsesSharedPool) {
    std::vector<std::atomic<int>> hits(64);
    parallel_for_n(0, 0, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksCoverUnevenRanges) {
    // Ranges that do not divide evenly into 4 * workers chunks must
    // still cover every index exactly once.
    ThreadPool pool(3);
    for (const std::size_t n : {1u, 2u, 11u, 12u, 13u, 97u}) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallel_for(0, n, [&](std::size_t i) { ++hits[i]; });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, ParallelSumMatchesSequential) {
    ThreadPool pool(4);
    std::vector<long long> values(1000);
    std::iota(values.begin(), values.end(), 1);
    std::atomic<long long> sum{0};
    pool.parallel_for(0, values.size(),
                      [&](std::size_t i) { sum += values[i]; });
    EXPECT_EQ(sum.load(), 1000LL * 1001 / 2);
}

}  // namespace
}  // namespace lcf::util
