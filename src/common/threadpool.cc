#include "common/threadpool.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <system_error>
#include <thread>

#include "common/annotations.hh"
#include "common/logging.hh"

namespace pargpu
{

namespace
{

thread_local bool tl_in_worker = false;

std::atomic<unsigned> g_default_override{0};
std::atomic<unsigned> g_base_threads{0};

} // namespace

/** One parallelFor() invocation: a chunk counter shared by all runners. */
struct ForJob
{
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::size_t n_chunks = 0;
    const std::function<void(std::size_t)> *fn = nullptr;

    std::atomic<std::size_t> next{0};      ///< Next chunk to claim.
    std::atomic<std::size_t> completed{0}; ///< Chunks fully executed.
    std::vector<std::exception_ptr> errors;

    Mutex done_mu;
    std::condition_variable_any done_cv; ///< Waits on the annotated Mutex.

    /**
     * Claim and run chunks until the counter is exhausted. Safe to call
     * from any number of threads; a runner arriving after exhaustion
     * returns immediately without touching fn (which may be gone by then).
     */
    void
    drain()
    {
        for (;;) {
            std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
            if (c >= n_chunks)
                return;
            try {
                std::size_t lo = c * chunk;
                std::size_t hi = std::min(n, lo + chunk);
                for (std::size_t i = lo; i < hi; ++i)
                    (*fn)(i);
            } catch (...) {
                errors[c] = std::current_exception();
            }
            if (completed.fetch_add(1) + 1 == n_chunks) {
                MutexLock lk(done_mu);
                done_cv.notify_all();
            }
        }
    }
};

struct ThreadPool::Impl
{
    mutable Mutex mu;
    std::condition_variable_any cv; ///< Waits on the annotated Mutex.
    std::deque<std::shared_ptr<ForJob>> queue PARGPU_GUARDED_BY(mu);
    std::vector<std::thread> workers PARGPU_GUARDED_BY(mu);
    bool stop PARGPU_GUARDED_BY(mu) = false;

    void
    workerLoop()
    {
        tl_in_worker = true;
        for (;;) {
            std::shared_ptr<ForJob> job;
            {
                UniqueLock lk(mu);
                // Explicit wait loop (not the predicate overload) so the
                // guarded reads of stop/queue sit visibly under the lock.
                while (!stop && queue.empty())
                    cv.wait(lk);
                if (stop && queue.empty())
                    return;
                job = std::move(queue.front());
                queue.pop_front();
            }
            job->drain();
        }
    }

    /**
     * Spawn workers until there are @p target. A failed thread start is
     * fatal, reported after the lock is released: fatal() exits, and
     * the pool's destructor then takes the lock to stop the workers
     * already running.
     */
    void
    grow(unsigned target) PARGPU_EXCLUDES(mu)
    {
        std::string error;
        {
            MutexLock lk(mu);
            try {
                while (workers.size() < target)
                    workers.emplace_back([this] { workerLoop(); });
            } catch (const std::system_error &e) {
                error = e.what();
            }
        }
        if (!error.empty())
            fatal("cannot start thread pool worker " +
                  std::to_string(workerCount() + 1) + " of " +
                  std::to_string(target) + ": " + error);
    }

    unsigned
    workerCount() const PARGPU_EXCLUDES(mu)
    {
        MutexLock lk(mu);
        return static_cast<unsigned>(workers.size());
    }
};

ThreadPool::ThreadPool(unsigned workers)
    : impl_(std::make_unique<Impl>())
{
    impl_->grow(workers);
}

ThreadPool::~ThreadPool()
{
    // Swap the worker list out under the lock, then join without it: a
    // worker draining the queue needs the mutex to observe stop, so
    // joining while holding it would deadlock.
    std::vector<std::thread> workers;
    {
        MutexLock lk(impl_->mu);
        impl_->stop = true;
        workers.swap(impl_->workers);
    }
    impl_->cv.notify_all();
    for (std::thread &t : workers)
        t.join();
}

unsigned
ThreadPool::workerCount() const
{
    return impl_->workerCount();
}

void
ThreadPool::ensureWorkers(unsigned workers)
{
    impl_->grow(workers);
}

void
ThreadPool::parallelFor(std::size_t n, std::size_t chunk,
                        const std::function<void(std::size_t)> &fn,
                        unsigned max_threads)
{
    if (n == 0)
        return;
    if (chunk == 0)
        chunk = 1;
    const std::size_t n_chunks = (n + chunk - 1) / chunk;

    // Serial fallbacks: nested call on a worker, no workers, a cap of one
    // thread, or nothing to hand out. Exceptions propagate directly.
    if (tl_in_worker || n_chunks <= 1 || max_threads == 1 ||
        workerCount() == 0) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto job = std::make_shared<ForJob>();
    job->n = n;
    job->chunk = chunk;
    job->n_chunks = n_chunks;
    job->fn = &fn;
    job->errors.resize(n_chunks);

    // Helpers beyond the caller, bounded by the cap, the pool size, and
    // the number of chunks someone other than the caller could run.
    unsigned helpers = workerCount();
    if (max_threads != 0)
        helpers = std::min(helpers, max_threads - 1);
    helpers = std::min<std::size_t>(helpers, n_chunks - 1);

    {
        MutexLock lk(impl_->mu);
        for (unsigned i = 0; i < helpers; ++i)
            impl_->queue.push_back(job);
    }
    if (helpers == 1)
        impl_->cv.notify_one();
    else
        impl_->cv.notify_all();

    job->drain(); // Caller participates.

    {
        UniqueLock lk(job->done_mu);
        while (job->completed.load() < job->n_chunks)
            job->done_cv.wait(lk);
    }

    for (std::exception_ptr &e : job->errors)
        if (e)
            std::rethrow_exception(e);
}

unsigned
ThreadPool::defaultThreads()
{
    unsigned o = g_default_override.load(std::memory_order_relaxed);
    if (o > 0)
        return o;
    unsigned base = g_base_threads.load(std::memory_order_relaxed);
    if (base > 0)
        return base;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
ThreadPool::setDefaultThreads(unsigned n)
{
    g_default_override.store(n, std::memory_order_relaxed);
}

void
ThreadPool::setBaseThreads(unsigned n)
{
    g_base_threads.store(n, std::memory_order_relaxed);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(defaultThreads() - 1);
    return pool;
}

bool
ThreadPool::inWorker()
{
    return tl_in_worker;
}

void
ThreadPool::run(std::size_t n, std::size_t chunk,
                const std::function<void(std::size_t)> &fn,
                unsigned threads)
{
    if (threads == 0)
        threads = defaultThreads();
    if (n == 0)
        return;
    if (threads <= 1 || tl_in_worker || n <= std::max<std::size_t>(chunk, 1)) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool &pool = global();
    pool.ensureWorkers(threads - 1);
    pool.parallelFor(n, chunk, fn, threads);
}

} // namespace pargpu
