/**
 * @file
 * Deterministic fixed-size thread pool shared by the harness (Session
 * run()/sweep() and the job dispatcher's passes: one task per
 * (condition, frame) pair), the simulator's per-draw tile streams, the
 * quality layer (SSIM row bands), scene and texture construction (texel
 * and mip-level row bands) and the benches.
 *
 * Design rules that make parallel runs bit-identical to serial ones:
 *
 *  - parallelFor() hands out contiguous index chunks; callers write results
 *    into pre-sized, index-addressed slots, so the output never depends on
 *    which worker ran which chunk or in what order chunks finished.
 *  - There is no work stealing and no shared mutable state beyond the
 *    chunk counter; any cross-item reduction is the caller's job and must
 *    be done serially in index order after the loop returns.
 *  - A parallelFor() issued from inside a worker runs inline (serially) on
 *    that worker, so nested parallelism can never deadlock and never
 *    changes results.
 *  - share() publishes a body that idle threads may join while it is
 *    open (the simulator's tile stream). A body must give the same
 *    result for any number of participants; the pool only decides how
 *    many run it. A worker runs a queued task before it joins a body,
 *    and a caller waiting in parallelFor() for its own job joins one
 *    instead of sleeping.
 *
 * The default concurrency is the process base (setBaseThreads(), which
 * PARGPU_THREADS sets through parseEnvironment()) or, when that is 0,
 * std::thread::hardware_concurrency(); benches, tests and the CLI can
 * override it per process (setDefaultThreads) or per call. Failing to
 * start a worker thread is fatal.
 */

#ifndef PARGPU_COMMON_THREADPOOL_HH
#define PARGPU_COMMON_THREADPOOL_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace pargpu
{

/**
 * A fixed set of worker threads executing chunked index ranges.
 *
 * Construct with the number of *extra* threads to spawn; the thread that
 * calls parallelFor() always participates as well, so a pool with W
 * workers gives W+1-way concurrency. A pool with 0 workers degenerates to
 * plain serial loops (useful for tests and single-core hosts).
 */
class ThreadPool
{
  public:
    explicit ThreadPool(unsigned workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of spawned worker threads (excluding callers). */
    unsigned workerCount() const;

    /** Spawn additional workers so workerCount() >= @p workers. */
    void ensureWorkers(unsigned workers);

    /**
     * Run fn(i) for every i in [0, n), in chunks of @p chunk consecutive
     * indices. Blocks until all indices completed. The calling thread
     * participates. If any invocation throws, the exception raised by the
     * lowest-numbered faulting chunk is rethrown here after the loop has
     * drained (remaining chunks still run).
     *
     * @param max_threads  Cap on total concurrency for this call
     *                     (workers used + caller). 0 = no cap.
     */
    void parallelFor(std::size_t n, std::size_t chunk,
                     const std::function<void(std::size_t)> &fn,
                     unsigned max_threads = 0);

    /**
     * Run body() on the calling thread (the owner) and let idle threads
     * join it as helpers, each running body() too, until the owner's call
     * returns. At most @p max_participants run it at once, the owner
     * included.
     *
     * A helper is a worker that found the queue empty or a caller waiting
     * in parallelFor() for its own job. The owner's body() must return
     * only once no work is left to claim; a helper's returns then too, or
     * earlier, at a point where its work is handed over, once
     * helperShouldLeave() says it has other work. When the owner's
     * returns the body closes: no thread joins any more, and share()
     * waits for the helpers inside to leave, then rethrows the first
     * exception any participant raised. A body must not call share().
     *
     * @param max_participants  1 (or 0) runs the owner alone.
     */
    void share(const std::function<void()> &body, unsigned max_participants);

    /**
     * True on a thread that joined a share() body as a helper and has
     * other work: a task is queued (worker), or its own parallelFor()
     * job completed (caller). Always false for the owner.
     */
    static bool helperShouldLeave();

    // --- Process-wide default pool --------------------------------------

    /**
     * Default concurrency: the setDefaultThreads() override if set, else
     * the setBaseThreads() base if set, else hardware_concurrency();
     * always >= 1.
     */
    static unsigned defaultThreads();

    /** Override defaultThreads() for this process (0 = back to base). */
    static void setDefaultThreads(unsigned n);

    /** The process base under any override (0 = hardware). */
    static void setBaseThreads(unsigned n);

    /** Lazily-created shared pool (grows on demand, never shrinks). */
    static ThreadPool &global();

    /**
     * True when the current thread is a pool worker, or a caller while it
     * helps a share() body (nested parallelism then runs inline).
     */
    static bool inWorker();

    /**
     * Convenience: run a parallelFor on the global pool with @p threads
     * total concurrency (0 = defaultThreads()), growing the pool as
     * needed. Falls back to an inline serial loop when threads <= 1, when
     * called from a worker, or when there is a single chunk.
     */
    static void run(std::size_t n, std::size_t chunk,
                    const std::function<void(std::size_t)> &fn,
                    unsigned threads = 0);

    /**
     * Convenience: share() on the global pool with at most @p threads
     * participants (0 = defaultThreads()), growing the pool as needed.
     */
    static void runShared(const std::function<void()> &body,
                          unsigned threads = 0);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_; ///< Out-of-line dtor sees the full Impl.
};

} // namespace pargpu

#endif // PARGPU_COMMON_THREADPOOL_HH
