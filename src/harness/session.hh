/**
 * @file
 * The one experiment entry point: a caller-owned Session renders traces
 * synchronously, or holds immutable shared assets, queued jobs and
 * streamed metrics snapshots.
 *
 * A Session amortizes everything a one-shot process pays per invocation:
 * decoded scenes, procedural textures and their mip pyramids, and
 * replayable traces. Assets are loaded once (load()), held behind
 * shared_ptr<const GameTrace> and shared read-only across every job;
 * thousands of config evaluations can then run in one process against
 * one decode. A Session that only runs synchronously is cheap to
 * construct and spawns no threads.
 *
 * Execution surfaces, all bit-identical to one another:
 *
 *  - run()/sweep(): synchronous, borrowing a caller-owned trace. The
 *    call builds one Job per condition over the borrowed trace and
 *    renders every (job, frame) pair as one pool task on the calling
 *    thread, which takes part; it returns once every job is done. Only
 *    RunConfig::threads (run()) caps how many frames render at once.
 *  - submit()/submitSweep(): asynchronous jobs over a loaded asset. One
 *    lazily started dispatcher thread runs the queued (job, frame)
 *    pairs in submission order across the whole shared ThreadPool; a
 *    job submitted while a pass runs joins it. Jobs expose streamed
 *    metrics snapshots while running. Handles are shared_ptr<Job> and
 *    outlive the Session (teardown drains the queue, so a surviving
 *    handle always ends in State::Done).
 *
 * Job is the one frame engine: every surface renders one frame per pool
 * task on a fresh simulator into the job's slot, and the task that
 * lands a job's last frame folds it with the serial frame-order
 * foldFrames().
 *
 * Error reporting extends the ConfigError/configErrorMessage pattern into
 * a small typed Status (code + message): loading and submission return
 * Status instead of fataling, so a server (pargpu_serve) can reject bad
 * requests with the same typed reasons RunConfig::validate() produces.
 */

#ifndef PARGPU_HARNESS_SESSION_HH
#define PARGPU_HARNESS_SESSION_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "harness/runner.hh"

namespace pargpu
{

/** Typed reason a Session request failed (Status::code). */
enum class StatusCode
{
    Ok,            ///< Request accepted / completed.
    InvalidConfig, ///< A RunConfig failed RunConfig::validate().
    UnknownTrace,  ///< No asset loaded under the requested key.
    DuplicateKey,  ///< load() under a key already bound to another asset.
    InvalidRequest,///< Malformed request (missing field, bad value).
    ShuttingDown,  ///< Session/server is tearing down.
    IoError,       ///< Transport or filesystem failure.
};

/** Stable wire name of @p code ("ok", "invalid_config", ...). */
const char *statusCodeName(StatusCode code);

/**
 * Typed error report for the Session surface: a StatusCode plus a
 * human-readable message (for InvalidConfig, the joined
 * configErrorMessage() strings of every violation).
 */
struct Status
{
    StatusCode code = StatusCode::Ok;
    std::string message;

    bool ok() const { return code == StatusCode::Ok; }

    /** The success value. */
    static Status success() { return Status{}; }

    /** An error with @p code and @p message. */
    static Status
    fail(StatusCode code, std::string message)
    {
        return Status{code, std::move(message)};
    }
};

/**
 * Validate @p config the Session way: Ok when valid, else InvalidConfig
 * with every configErrorMessage() joined by "; " — the same typed
 * reasons run() fatals with, minus the process exit.
 */
Status validateRunConfig(const RunConfig &config);

/** Environment variables by name; an absent name is unset. */
using EnvMap = std::map<std::string, std::string>;

/** The process's values of the variables parseEnvironment() reads. */
EnvMap processEnvironment();

/**
 * Parse PARGPU_THREADS and PARGPU_SIMD, then apply both through their
 * setters (unset or empty: the default); any other name is ignored. Any
 * bad value applies nothing: InvalidConfig
 * with every bad variable's message joined by "; ". Entry points call it
 * with processEnvironment(); the library itself reads no environment.
 */
Status parseEnvironment(const EnvMap &env);

class Session;

/**
 * One queued/running/finished unit of Session work: a single RunConfig
 * rendered against one trace (a loaded asset, or the caller's trace for
 * the length of a run()/sweep() call). Handles are shared_ptr and remain
 * valid after the owning Session is destroyed (teardown drains the
 * queue, so a surviving handle always reaches State::Done).
 */
class Job
{
  public:
    /** Lifecycle of a submitted job. */
    enum class State
    {
        Queued,  ///< Accepted, no frame started yet.
        Running, ///< Rendering frames.
        Done,    ///< result() is final.
    };

    /** Construction passkey: only Session can mint one. */
    class Passkey
    {
        friend class Session;
        Passkey() = default;
    };

    /** Session-only (via Passkey); use Session::submit() to make jobs. */
    Job(Passkey, std::string trace_key,
        std::shared_ptr<const GameTrace> trace, const RunConfig &config);

    State state() const;

    /** Block until the job reaches State::Done. */
    void wait() const;

    /** Key of the loaded trace this job renders. */
    const std::string &traceKey() const { return trace_key_; }

    /** The condition this job renders. */
    const RunConfig &config() const { return config_; }

    /** Frames in the job's trace. */
    std::size_t framesTotal() const { return frames_total_; }

    /** Frames finished so far (monotonic; == framesTotal() when Done). */
    std::size_t framesCompleted() const;

    /**
     * Blocking access to the finished result (wait() + reference). The
     * result is bit-identical to Session::run(trace, config()).
     */
    const RunResult &result() const;

    /**
     * Streamed metrics snapshot: a JSON object with the job state,
     * frame progress, and the standard registry built over the frames
     * completed so far (in frame order). Callable at any time from any
     * thread; a snapshot never perturbs the run. After Done the
     * registry equals the one metricsJson() derives from result().
     */
    Json snapshot() const;

  private:
    friend class Session;

    /**
     * Render frame @p f (once per frame, from the dispatcher or a
     * run()/sweep() pool task; a zero-frame job gets one call with
     * f == 0). The call that lands the last frame folds the result and
     * publishes Done, incrementing @p completed first so a waiter never
     * observes a finished job with a stale counter.
     */
    void runFrame(std::size_t f, std::atomic<std::size_t> &completed);

    const std::string trace_key_;
    /** Keeps a loaded asset alive; non-owning in run()/sweep(). */
    const std::shared_ptr<const GameTrace> trace_;
    const RunConfig config_;
    const std::size_t frames_total_;

    /** Guards state_, outs_, frame_done_, n_done_ and result_. */
    mutable std::mutex mu_;
    mutable std::condition_variable cv_;
    State state_ = State::Queued;
    /** Finished frames' outputs, index-addressed; freed by the fold. */
    std::vector<FrameOutput> outs_;
    std::vector<bool> frame_done_;
    std::size_t n_done_ = 0;
    RunResult result_;
};

/** Shared, Session-outliving reference to a submitted Job. */
using JobHandle = std::shared_ptr<Job>;

/**
 * The session facade (file header above for the full story). Thread
 * safe: every member may be called from any thread.
 */
class Session
{
  public:
    Session() = default;

    /**
     * Drains the job queue (every accepted job runs to completion),
     * then joins the dispatcher. Outstanding JobHandles stay valid.
     */
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    // --- Immutable shared assets ----------------------------------------

    /**
     * Bind @p trace to @p key. The asset becomes immutable and shared
     * read-only by every job that references it. Reloading the same key
     * is DuplicateKey (assets never mutate under running jobs).
     */
    Status load(const std::string &key, GameTrace trace);

    /**
     * Build buildGameTrace(game, width, height, frames) under @p key.
     * InvalidRequest unless every side and frames are positive and
     * within withinTraceBudget() (readTrace()'s limits: each side at most
     * kMaxTraceViewport, frames at most kMaxTraceCameras, their product
     * at most kMaxTracePixelFrames).
     */
    Status load(const std::string &key, GameId game, int width, int height,
                int frames);

    /** The asset under @p key, or nullptr. */
    std::shared_ptr<const GameTrace> trace(const std::string &key) const;

    /** Keys of every loaded asset, sorted. */
    std::vector<std::string> traceKeys() const;

    // --- Synchronous execution -------------------------------------------

    /**
     * Render @p trace under @p config (fatal() on an invalid config),
     * frames in parallel on the shared pool; RunConfig::threads caps
     * how many at once. Synchronous calls leave jobsSubmitted() and
     * jobsCompleted() alone.
     */
    RunResult run(const GameTrace &trace, const RunConfig &config);

    /**
     * Render @p trace under every condition of @p configs, every
     * (condition, frame) pair a pool task in submission order, at most
     * ThreadPool::defaultThreads() at once. results[i] corresponds to
     * configs[i] and is bit-identical to run(trace, configs[i]);
     * fatal() on any invalid config.
     */
    std::vector<RunResult> sweep(const GameTrace &trace,
                                 const std::vector<RunConfig> &configs);

    // --- Asynchronous jobs ----------------------------------------------

    /**
     * Enqueue one condition against a loaded asset. On success returns
     * the handle (and Ok through @p status when given); on failure
     * returns nullptr with the typed reason in @p status.
     */
    JobHandle submit(const std::string &key, const RunConfig &config,
                     Status *status = nullptr);

    /**
     * Enqueue one job per config (a concurrent sweep). All-or-nothing:
     * on any invalid config nothing is enqueued and the vector is
     * empty with the reason in @p status. Waiting on the handles in
     * order yields results bit-identical to sweep(trace, configs).
     */
    std::vector<JobHandle> submitSweep(const std::string &key,
                                       const std::vector<RunConfig> &configs,
                                       Status *status = nullptr);

    /** Jobs accepted so far (monotonic). */
    std::size_t jobsSubmitted() const;

    /** Jobs finished so far (monotonic). */
    std::size_t jobsCompleted() const;

  private:
    /**
     * run() and sweep(): one Job per condition over the borrowed
     * @p trace, every (job, frame) pair one pool task, at most @p threads
     * at once (0 = default); fatal() on an invalid config; results by
     * index.
     */
    static std::vector<RunResult>
    renderJobs(const GameTrace &trace, const std::vector<RunConfig> &configs,
               unsigned threads);

    void dispatcherLoop();
    void enqueue(const std::vector<JobHandle> &jobs);

    /**
     * Claim the next (job, frame) pair in submission order; false when
     * no frame is left to claim.
     */
    bool claimFrame(JobHandle &job, std::size_t &frame);

    /** Guards traces_, queue_, next_frame_, stop_ and dispatcher_. */
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::string, std::shared_ptr<const GameTrace>> traces_;
    /** Jobs with frames left to claim, in submission order. */
    std::deque<JobHandle> queue_;
    /** The next frame of queue_.front() to claim. */
    std::size_t next_frame_ = 0;
    bool stop_ = false;
    std::atomic<std::size_t> submitted_{0};
    std::atomic<std::size_t> completed_{0};
    /** Started by the first submission; joined by the destructor. */
    std::thread dispatcher_;
};

} // namespace pargpu

#endif // PARGPU_HARNESS_SESSION_HH
