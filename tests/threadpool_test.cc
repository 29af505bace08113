/**
 * @file
 * Unit tests for the deterministic thread pool: slot ordering, exception
 * propagation, nested-parallelism safety, worker-count edge cases, and
 * the process-default concurrency knobs.
 */

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/threadpool.hh"
#include "harness/session.hh"

using namespace pargpu;

namespace
{

std::vector<int>
serialReference(std::size_t n)
{
    std::vector<int> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<int>(i * i % 977);
    return v;
}

} // namespace

TEST(ThreadPool, SlotsMatchSerialAcrossWorkerCounts)
{
    const std::size_t n = 1000;
    std::vector<int> want = serialReference(n);
    for (unsigned workers : {0u, 1u, 3u, 7u}) {
        ThreadPool pool(workers);
        for (std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, n, n + 5}) {
            std::vector<int> got(n, -1);
            pool.parallelFor(n, chunk, [&](std::size_t i) {
                got[i] = static_cast<int>(i * i % 977);
            });
            EXPECT_EQ(got, want) << "workers=" << workers
                                 << " chunk=" << chunk;
        }
    }
}

TEST(ThreadPool, EmptyRangeIsANoop)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(0, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ZeroChunkIsTreatedAsOne)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(10, 0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives)
{
    ThreadPool pool(3);
    EXPECT_THROW(
        pool.parallelFor(100, 4, [](std::size_t i) {
            if (i == 37)
                throw std::runtime_error("boom");
        }),
        std::runtime_error);

    // The pool is still usable after a failed loop.
    std::atomic<int> calls{0};
    pool.parallelFor(50, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 50);
}

TEST(ThreadPool, LowestChunkExceptionWins)
{
    ThreadPool pool(3);
    // Chunks of 10: index 12 is in chunk 1, index 77 in chunk 7. The
    // rethrown error must come from the lowest faulting chunk regardless
    // of completion order.
    try {
        pool.parallelFor(100, 10, [](std::size_t i) {
            if (i == 12)
                throw std::runtime_error("chunk1");
            if (i == 77)
                throw std::runtime_error("chunk7");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "chunk1");
    }
}

TEST(ThreadPool, NestedParallelForRunsInlineOnWorkers)
{
    ThreadPool pool(4);
    const std::size_t outer = 8, inner = 32;
    std::vector<std::vector<int>> got(outer,
                                      std::vector<int>(inner, -1));
    std::atomic<int> worker_nested{0};
    pool.parallelFor(outer, 1, [&](std::size_t o) {
        bool on_worker = ThreadPool::inWorker();
        pool.parallelFor(inner, 4, [&](std::size_t i) {
            // Inner loops on a worker must run inline on that worker.
            if (on_worker) {
                EXPECT_TRUE(ThreadPool::inWorker());
            }
            got[o][i] = static_cast<int>(o * inner + i);
        });
        if (on_worker)
            ++worker_nested;
    });
    for (std::size_t o = 0; o < outer; ++o)
        for (std::size_t i = 0; i < inner; ++i)
            EXPECT_EQ(got[o][i], static_cast<int>(o * inner + i));
}

TEST(ThreadPool, CallerIsNotAWorker)
{
    EXPECT_FALSE(ThreadPool::inWorker());
    ThreadPool pool(2);
    bool worker_seen = false;
    std::mutex mu;
    pool.parallelFor(64, 1, [&](std::size_t) {
        if (ThreadPool::inWorker()) {
            std::lock_guard<std::mutex> lk(mu);
            worker_seen = true;
        }
    });
    // With 2 workers and 64 single-index chunks, at least one chunk ran
    // on a worker thread in practice; the caller flag must stay false.
    EXPECT_FALSE(ThreadPool::inWorker());
    (void)worker_seen;
}

TEST(ThreadPool, EnsureWorkersGrowsThePool)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.workerCount(), 1u);
    pool.ensureWorkers(4);
    EXPECT_EQ(pool.workerCount(), 4u);
    pool.ensureWorkers(2); // Never shrinks.
    EXPECT_EQ(pool.workerCount(), 4u);

    std::vector<int> got(100, -1);
    pool.parallelFor(100, 3, [&](std::size_t i) {
        got[i] = static_cast<int>(i);
    });
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(ThreadPool, MaxThreadsOneRunsSerial)
{
    ThreadPool pool(4);
    // With a cap of one thread everything runs on the caller.
    bool saw_worker = false;
    pool.parallelFor(32, 1, [&](std::size_t) {
        if (ThreadPool::inWorker())
            saw_worker = true;
    }, 1);
    EXPECT_FALSE(saw_worker);
}

TEST(ThreadPool, DefaultThreadsOverride)
{
    unsigned before = ThreadPool::defaultThreads();
    EXPECT_GE(before, 1u);
    ThreadPool::setDefaultThreads(3);
    EXPECT_EQ(ThreadPool::defaultThreads(), 3u);
    ThreadPool::setDefaultThreads(0); // Back to the base (PARGPU_THREADS).
    EXPECT_EQ(ThreadPool::defaultThreads(), before);
}

TEST(ThreadPool, OverrideSitsAboveTheBase)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    ThreadPool::setBaseThreads(5);
    EXPECT_EQ(ThreadPool::defaultThreads(), 5u);
    ThreadPool::setDefaultThreads(3);
    EXPECT_EQ(ThreadPool::defaultThreads(), 3u);
    ThreadPool::setDefaultThreads(0);
    EXPECT_EQ(ThreadPool::defaultThreads(), 5u);
    ThreadPool::setBaseThreads(0);
    EXPECT_EQ(ThreadPool::defaultThreads(), hw);
    // Back to what the test main applied.
    ASSERT_TRUE(parseEnvironment(processEnvironment()).ok());
}

TEST(ThreadPool, StaticRunMatchesSerial)
{
    const std::size_t n = 500;
    std::vector<int> want = serialReference(n);
    for (unsigned threads : {1u, 4u}) {
        std::vector<int> got(n, -1);
        ThreadPool::run(n, 16, [&](std::size_t i) {
            got[i] = static_cast<int>(i * i % 977);
        }, threads);
        EXPECT_EQ(got, want) << "threads=" << threads;
    }
}
