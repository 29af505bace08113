/**
 * @file
 * Unit tests for the deterministic thread pool: slot ordering, exception
 * propagation, nested-parallelism safety, worker-count edge cases, the
 * process-default concurrency knobs, and share() bodies that idle
 * threads join.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
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

/**
 * Yield until @p done holds; false after a minute, so a broken pool
 * fails the test instead of hanging it.
 */
template <typename Pred>
bool
waitUntil(Pred done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(1);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
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

TEST(ThreadPool, ConcurrentCallersAllComplete)
{
    // Plain threads share one pool, each waiting on its own jobs: a
    // completion must wake its caller, not a neighbour's wait. A lost
    // wakeup hangs here (the ctest TIMEOUT catches it).
    constexpr unsigned kCallers = 4;
    constexpr int kCalls = 200;
    for (unsigned workers : {1u, 3u}) {
        ThreadPool pool(workers);
        std::atomic<int> mismatches{0};
        std::vector<std::thread> callers;
        for (unsigned c = 0; c < kCallers; ++c)
            callers.emplace_back([&pool, &mismatches, c] {
                for (int k = 0; k < kCalls; ++k) {
                    const std::size_t n = 8 + (c * 7 + k) % 57;
                    std::vector<int> got(n, -1);
                    pool.parallelFor(n, 3, [&](std::size_t i) {
                        got[i] = static_cast<int>(i * i % 977);
                    });
                    if (got != serialReference(n))
                        ++mismatches;
                }
            });
        for (std::thread &t : callers)
            t.join();
        EXPECT_EQ(mismatches.load(), 0) << "workers=" << workers;
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

// --- share(): bodies that idle threads join ----------------------------

TEST(ThreadPoolShare, IdleWorkersJoinUpToTheCap)
{
    ThreadPool pool(4);
    const std::thread::id owner = std::this_thread::get_id();
    std::atomic<unsigned> inside{0};
    std::atomic<unsigned> most{0};
    std::atomic<bool> release{false};
    pool.share([&] {
        if (std::this_thread::get_id() == owner) {
            // The owner holds the body open until the cap's worth of
            // helpers is in, then lets them go; nobody joins after it
            // returns.
            EXPECT_TRUE(waitUntil([&] { return inside.load() == 3; }));
            release = true;
            return;
        }
        EXPECT_TRUE(ThreadPool::inWorker());
        EXPECT_FALSE(ThreadPool::helperShouldLeave());
        const unsigned now = ++inside;
        unsigned m = most.load();
        while (now > m && !most.compare_exchange_weak(m, now)) {
        }
        EXPECT_TRUE(waitUntil([&] { return release.load(); }));
    }, 4);
    // Four workers idle, three helpers allowed.
    EXPECT_EQ(most.load(), 3u);
}

TEST(ThreadPoolShare, HelpersLeaveForQueuedTasks)
{
    // A worker helping a body leaves once a task is queued, and runs the
    // task before it looks at the body again.
    ThreadPool pool(1);
    std::atomic<bool> open{false};
    std::atomic<bool> joined{false};
    std::atomic<bool> done{false};
    std::atomic<int> step{0};
    std::atomic<int> left_at{-1};
    std::atomic<int> task_at{-1};
    std::thread owner([&] {
        const std::thread::id me = std::this_thread::get_id();
        pool.share([&] {
            if (std::this_thread::get_id() == me) {
                open = true;
                EXPECT_TRUE(waitUntil([&] { return task_at.load() >= 0; }));
                done = true;
                return;
            }
            joined = true;
            while (!done && !ThreadPool::helperShouldLeave())
                std::this_thread::yield();
            if (!done)
                left_at = step++;
        }, 2);
    });
    ASSERT_TRUE(waitUntil([&] { return joined.load(); }));
    // Two chunks: whichever this caller claims first waits for the
    // worker to run the other, so the worker must take the queued task.
    pool.parallelFor(2, 1, [&](std::size_t) {
        if (ThreadPool::inWorker()) {
            if (task_at.load() < 0)
                task_at = step++;
        } else {
            EXPECT_TRUE(waitUntil([&] { return task_at.load() >= 0; }));
        }
    });
    owner.join();
    EXPECT_TRUE(open.load());
    EXPECT_EQ(left_at.load(), 0);
    EXPECT_EQ(task_at.load(), 1);
}

TEST(ThreadPoolShare, WaitingCallerJoinsAndLeavesWhenItsJobIsDone)
{
    // A caller waiting in parallelFor() for a chunk a worker runs helps
    // an open body meanwhile, and leaves it once its own job completes.
    ThreadPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> stream_open{false};
    std::atomic<bool> worker_claimed{false};
    std::atomic<bool> caller_joined{false};
    std::atomic<bool> caller_left{false};
    std::atomic<bool> done{false};
    std::thread owner([&] {
        const std::thread::id me = std::this_thread::get_id();
        pool.share([&] {
            if (std::this_thread::get_id() == me) {
                stream_open = true;
                EXPECT_TRUE(waitUntil([&] { return caller_left.load(); }));
                done = true;
                return;
            }
            // The worker may visit too; it stays until the task shows.
            const bool is_caller = std::this_thread::get_id() == caller;
            if (is_caller)
                caller_joined = true;
            while (!done && !ThreadPool::helperShouldLeave())
                std::this_thread::yield();
            if (is_caller && !done)
                caller_left = true;
        }, 3);
    });
    ASSERT_TRUE(waitUntil([&] { return stream_open.load(); }));
    pool.parallelFor(2, 1, [&](std::size_t) {
        if (std::this_thread::get_id() == caller) {
            // Leave a chunk to the worker, so the job outlasts this one.
            EXPECT_TRUE(waitUntil([&] { return worker_claimed.load(); }));
            return;
        }
        // The worker: hold the job open until the caller is helping.
        worker_claimed = true;
        EXPECT_TRUE(waitUntil([&] { return caller_joined.load(); }));
    });
    owner.join();
    EXPECT_TRUE(caller_joined.load());
    EXPECT_TRUE(caller_left.load());
    EXPECT_FALSE(ThreadPool::inWorker());
}

TEST(ThreadPoolShare, HelperExceptionRethrownAfterEveryHelperLeft)
{
    ThreadPool pool(2);
    const std::thread::id owner = std::this_thread::get_id();
    std::atomic<unsigned> inside{0};
    std::atomic<bool> thrown{false};
    std::atomic<bool> straggler_left{false};
    try {
        pool.share([&] {
            if (std::this_thread::get_id() == owner) {
                EXPECT_TRUE(waitUntil([&] { return inside.load() == 2; }));
                return;
            }
            const unsigned order = ++inside;
            EXPECT_TRUE(waitUntil([&] { return inside.load() == 2; }));
            if (order == 1) {
                thrown = true;
                throw std::runtime_error("helper failed");
            }
            // The other helper is still inside when the first throws.
            EXPECT_TRUE(waitUntil([&] { return thrown.load(); }));
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            straggler_left = true;
        }, 3);
        FAIL() << "expected the helper's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "helper failed");
        EXPECT_TRUE(straggler_left.load());
    }

    // The pool keeps working: loops, and bodies with helpers.
    std::vector<int> got(64, -1);
    pool.parallelFor(64, 4, [&](std::size_t i) {
        got[i] = static_cast<int>(i);
    });
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(got[i], i);
    std::atomic<unsigned> joined{0};
    pool.share([&] {
        if (std::this_thread::get_id() != owner)
            ++joined;
        EXPECT_TRUE(waitUntil([&] { return joined.load() == 2; }));
    }, 3);
    EXPECT_EQ(joined.load(), 2u);
}

TEST(ThreadPoolShare, OwnerExceptionRethrown)
{
    ThreadPool pool(2);
    const std::thread::id owner = std::this_thread::get_id();
    EXPECT_THROW(pool.share([&] {
        if (std::this_thread::get_id() == owner)
            throw std::runtime_error("owner failed");
    }, 3),
                 std::runtime_error);
}

TEST(ThreadPoolShare, NobodyJoinsAtOneThread)
{
    const std::thread::id owner = std::this_thread::get_id();
    std::atomic<unsigned> others{0};
    const auto body = [&] {
        if (std::this_thread::get_id() != owner)
            ++others;
        // Time for an idle worker to show up, if one could.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    };
    ThreadPool::global().ensureWorkers(3);
    ThreadPool::setDefaultThreads(1);
    ThreadPool::runShared(body);
    ThreadPool::setDefaultThreads(0);
    EXPECT_EQ(others.load(), 0u);

    ThreadPool pool(3);
    pool.share(body, 1);
    EXPECT_EQ(others.load(), 0u);
}
