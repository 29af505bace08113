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
#include "common/contract.hh"
#include "common/logging.hh"

namespace pargpu
{

struct ForJob;

namespace
{

thread_local bool tl_in_worker = false;

// What a helper inside a share() body has waiting for it: its pool's
// queue (a worker) or its own parallelFor() job (a caller). Both null
// outside a helper's visit.
thread_local const std::atomic<std::size_t> *tl_leave_queue = nullptr;
thread_local const ForJob *tl_leave_job = nullptr;

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

    /** The pool's lock and the condition its waiting caller sleeps on. */
    Mutex *wake_mu = nullptr;
    std::condition_variable_any *wake_cv = nullptr;

    bool done() const { return completed.load() >= n_chunks; }

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
                MutexLock lk(*wake_mu);
                wake_cv->notify_all();
            }
        }
    }
};

/**
 * One open share() body. Lives on its owner's stack; every field but
 * body and max_helpers is guarded by the pool's mutex.
 */
struct SharedBody
{
    const std::function<void()> *body = nullptr;
    unsigned max_helpers = 0;
    unsigned helpers = 0;     ///< Helpers inside the body now.
    bool closed = false;      ///< The owner's call returned: nobody joins.
    bool exhausted = false;   ///< A helper found no work left.
    std::exception_ptr error; ///< First exception a participant raised.
};

struct ThreadPool::Impl
{
    mutable Mutex mu;
    std::condition_variable_any cv; ///< Idle workers; on the annotated Mutex.
    /** Callers waiting for their job, owners for their helpers. */
    std::condition_variable_any waiters;
    std::deque<std::shared_ptr<ForJob>> queue PARGPU_GUARDED_BY(mu);
    /** queue.size(), readable without the lock (helperShouldLeave()). */
    std::atomic<std::size_t> queued{0};
    std::vector<SharedBody *> open PARGPU_GUARDED_BY(mu); ///< Joinable.
    std::vector<std::thread> workers PARGPU_GUARDED_BY(mu);
    bool stop PARGPU_GUARDED_BY(mu) = false;

    void
    workerLoop()
    {
        tl_in_worker = true;
        UniqueLock lk(mu);
        // Explicit loop (not the predicate overload) so the guarded reads
        // sit visibly under the lock. Queued tasks come first.
        for (;;) {
            if (!queue.empty()) {
                std::shared_ptr<ForJob> job = std::move(queue.front());
                queue.pop_front();
                queued.store(queue.size());
                lk.unlock();
                job->drain();
                job.reset();
                lk.lock();
            } else if (stop) {
                return;
            } else if (SharedBody *sb = joinable()) {
                help(lk, *sb, nullptr);
            } else {
                cv.wait(lk);
            }
        }
    }

    /** The open body with room and work that has the fewest helpers. */
    SharedBody *
    joinable() PARGPU_REQUIRES(mu)
    {
        SharedBody *best = nullptr;
        for (SharedBody *sb : open)
            if (!sb->exhausted && sb->helpers < sb->max_helpers &&
                (!best || sb->helpers < best->helpers))
                best = sb;
        return best;
    }

    /**
     * Run @p sb's body as a helper, without the lock. @p job is the
     * caller's own parallelFor() job, or null on a worker.
     */
    void
    help(UniqueLock &lk, SharedBody &sb, const ForJob *job)
        PARGPU_REQUIRES(mu)
    {
        ++sb.helpers;
        lk.unlock();

        const bool was_worker = tl_in_worker;
        tl_in_worker = true;
        tl_leave_queue = job ? nullptr : &queued;
        tl_leave_job = job;
        std::exception_ptr error;
        try {
            (*sb.body)();
        } catch (...) {
            error = std::current_exception();
        }
        // A helper that had nowhere else to go returned because no work
        // was left to claim: nobody else need join.
        const bool ran_out = !ThreadPool::helperShouldLeave();
        tl_leave_queue = nullptr;
        tl_leave_job = nullptr;
        tl_in_worker = was_worker;

        lk.lock();
        if (error && !sb.error)
            sb.error = error;
        sb.exhausted = sb.exhausted || ran_out || error;
        if (--sb.helpers == 0 && sb.closed)
            waiters.notify_all();
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
    job->wake_mu = &impl_->mu;
    job->wake_cv = &impl_->waiters;

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
        impl_->queued.store(impl_->queue.size());
    }
    if (helpers == 1)
        impl_->cv.notify_one();
    else
        impl_->cv.notify_all();

    job->drain(); // Caller participates.

    {
        // Until the last chunk lands, help an open body rather than
        // sleep; a publish or the job's completion wakes the wait.
        UniqueLock lk(impl_->mu);
        while (!job->done()) {
            if (SharedBody *sb = impl_->joinable())
                impl_->help(lk, *sb, job.get());
            else
                impl_->waiters.wait(lk);
        }
    }

    for (std::exception_ptr &e : job->errors)
        if (e)
            std::rethrow_exception(e);
}

void
ThreadPool::share(const std::function<void()> &body,
                  unsigned max_participants)
{
    // An owner that is also a helper would leave its own body early.
    PARGPU_ASSERT(!tl_leave_queue && !tl_leave_job,
                  "share() called from inside a share() body");
    if (max_participants <= 1 || workerCount() == 0) {
        body();
        return;
    }

    SharedBody sb;
    sb.body = &body;
    sb.max_helpers = max_participants - 1;
    {
        MutexLock lk(impl_->mu);
        impl_->open.push_back(&sb);
    }
    impl_->cv.notify_all();
    impl_->waiters.notify_all();

    std::exception_ptr error;
    try {
        body();
    } catch (...) {
        error = std::current_exception();
    }

    UniqueLock lk(impl_->mu);
    if (error && !sb.error)
        sb.error = error;
    sb.closed = true;
    std::erase(impl_->open, &sb);
    while (sb.helpers > 0)
        impl_->waiters.wait(lk);
    if (sb.error)
        std::rethrow_exception(sb.error);
}

bool
ThreadPool::helperShouldLeave()
{
    if (tl_leave_job)
        return tl_leave_job->done();
    return tl_leave_queue && tl_leave_queue->load() != 0;
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

void
ThreadPool::runShared(const std::function<void()> &body,
                      unsigned threads)
{
    if (threads == 0)
        threads = defaultThreads();
    if (threads <= 1) {
        body();
        return;
    }
    ThreadPool &pool = global();
    pool.ensureWorkers(threads - 1);
    pool.share(body, threads);
}

} // namespace pargpu
