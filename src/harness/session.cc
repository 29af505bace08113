#include "harness/session.hh"

#include <algorithm>
#include <utility>

#include "common/contract.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"
#include "common/tracing.hh"
#include "harness/metrics.hh"
#include "sim/pipeline.hh"
#include "trace/trace.hh"

namespace pargpu
{

const char *
statusCodeName(StatusCode code)
{
    switch (code) {
    case StatusCode::Ok: return "ok";
    case StatusCode::InvalidConfig: return "invalid_config";
    case StatusCode::UnknownTrace: return "unknown_trace";
    case StatusCode::DuplicateKey: return "duplicate_key";
    case StatusCode::InvalidRequest: return "invalid_request";
    case StatusCode::ShuttingDown: return "shutting_down";
    case StatusCode::IoError: return "io_error";
    }
    return "unknown";
}

Status
validateRunConfig(const RunConfig &config)
{
    const std::vector<ConfigError> errors = config.validate();
    if (errors.empty())
        return Status::success();
    std::string message;
    for (ConfigError e : errors) {
        if (!message.empty())
            message += "; ";
        message += configErrorMessage(e);
    }
    return Status::fail(StatusCode::InvalidConfig, std::move(message));
}

namespace
{

/**
 * Render frame @p f of @p trace under @p config on a fresh GpuSimulator
 * (a frame's output never depends on what else its thread rendered).
 */
FrameOutput
renderFrame(const GameTrace &trace, const RunConfig &config, std::size_t f)
{
    PARGPU_TRACE_SCOPE_F("harness", "renderFrame", f);
    // A fresh simulator per frame: the simulator resets cache and DRAM
    // state per frame, so a frame's output does not depend on what its
    // simulator rendered before (determinism_test pins this down).
    GpuSimulator sim(makeGpuConfig(config));
    return sim.renderFrame(trace.scene, trace.cameras[f], trace.width,
                           trace.height);
}

/**
 * The serial frame-order fold of every job and snapshot: per-frame stats,
 * images when @p keep_images, and the aggregates summed in frame order.
 * Consumes (and so frees) @p outs.
 */
RunResult
foldFrames(std::vector<FrameOutput> outs, bool keep_images)
{
    PARGPU_TRACE_SCOPE("harness", "aggregate");
    const std::size_t n = outs.size();
    RunResult result;
    result.frames.reserve(n);
    if (keep_images)
        result.images.reserve(n);
    double cycles = 0.0, power = 0.0;
    for (FrameOutput &out : outs) {
        EnergyBreakdown e = computeEnergy(out.stats);
        result.total_energy_nj += e.total_nj();
        power += averagePowerW(e, out.stats);
        cycles += static_cast<double>(out.stats.total_cycles);
        result.frames.push_back(out.stats);
        if (keep_images)
            result.images.push_back(std::move(out.image));
    }
    if (n > 0) {
        result.avg_cycles = cycles / static_cast<double>(n);
        result.avg_power_w = power / static_cast<double>(n);
    }
    PARGPU_INVARIANT(result.avg_cycles >= 0.0 &&
                         result.total_energy_nj >= 0.0 &&
                         result.avg_power_w >= 0.0,
                     "negative aggregate: cycles=", result.avg_cycles,
                     " energy=", result.total_energy_nj,
                     " power=", result.avg_power_w);
    return result;
}

} // namespace

// --- Job -----------------------------------------------------------------

Job::Job(Passkey, std::string trace_key,
         std::shared_ptr<const GameTrace> trace, const RunConfig &config)
    : trace_key_(std::move(trace_key)), trace_(std::move(trace)),
      config_(config), frames_total_(trace_->cameras.size()),
      outs_(frames_total_), frame_done_(frames_total_, false)
{
}

Job::State
Job::state() const
{
    MutexLock lk(mu_);
    return state_;
}

void
Job::wait() const
{
    UniqueLock lk(mu_);
    while (state_ != State::Done)
        cv_.wait(lk);
}

std::size_t
Job::framesCompleted() const
{
    MutexLock lk(mu_);
    return n_done_;
}

const RunResult &
Job::result() const
{
    UniqueLock lk(mu_);
    while (state_ != State::Done)
        cv_.wait(lk);
    // State::Done is terminal and result_ is never written again, so
    // the reference stays valid after the lock is released.
    return result_;
}

void
Job::runFrame(std::size_t f, std::atomic<std::size_t> &completed)
{
    {
        MutexLock lk(mu_);
        if (state_ == State::Queued)
            state_ = State::Running;
    }
    FrameOutput out;
    if (f < frames_total_)
        out = renderFrame(*trace_, config_, f);
    {
        MutexLock lk(mu_);
        if (f < frames_total_) {
            outs_[f] = std::move(out);
            frame_done_[f] = true;
            ++n_done_;
        }
        if (n_done_ < frames_total_)
            return;
        // The last frame: fold under the lock, so a snapshot sees either
        // the finished frames or the final result, never neither.
        result_ = foldFrames(std::move(outs_), config_.keep_images);
        // Count the completion before Done is published: a waiter that
        // has observed Done must observe the session counter too.
        completed.fetch_add(1, std::memory_order_relaxed);
        state_ = State::Done;
    }
    cv_.notify_all();
    // Every pool thread is busy rendering, so a waiter just woken (a
    // serve loop streaming this result) would otherwise queue behind a
    // running frame's time slice, ~3 ms on a 4-core Linux host; hand it
    // this core first.
    std::this_thread::yield();
}

Json
Job::snapshot() const
{
    // Copy the completed frames (in frame order) under the lock, then
    // aggregate outside it — snapshots never block the run for longer
    // than the copy.
    State state;
    std::vector<FrameOutput> frames; // Stats only; images stay behind.
    {
        MutexLock lk(mu_);
        state = state_;
        if (state == State::Done) {
            for (const FrameStats &f : result_.frames)
                frames.push_back(FrameOutput{Image{}, f});
        } else {
            frames.reserve(n_done_);
            for (std::size_t i = 0; i < frame_done_.size(); ++i)
                if (frame_done_[i])
                    frames.push_back(FrameOutput{Image{}, outs_[i].stats});
        }
    }

    // The fold the final result uses, so a snapshot taken after Done
    // matches it exactly.
    const RunResult partial = foldFrames(std::move(frames), false);

    const char *state_name = state == State::Queued    ? "queued"
                             : state == State::Running ? "running"
                                                       : "done";
    Json j = Json::object();
    j.set("type", Json{"job_snapshot"});
    j.set("state", Json{state_name});
    j.set("trace", Json{trace_key_});
    j.set("frames_total",
          Json{static_cast<std::uint64_t>(frames_total_)});
    j.set("frames_completed",
          Json{static_cast<std::uint64_t>(partial.frames.size())});
    Json agg = Json::object();
    agg.set("avg_cycles", Json{partial.avg_cycles});
    agg.set("total_energy_nj", Json{partial.total_energy_nj});
    agg.set("avg_power_w", Json{partial.avg_power_w});
    j.set("aggregate", std::move(agg));
    StatRegistry reg;
    buildRunRegistry(partial, reg);
    j.set("registry", reg.snapshot().toJson());
    return j;
}

// --- Session -------------------------------------------------------------

Session::~Session()
{
    // Take the dispatcher out under the lock, then join without it (it
    // needs the mutex to drain); queued jobs still run to completion
    // first, so surviving JobHandles always reach Done.
    std::thread dispatcher;
    {
        MutexLock lk(mu_);
        stop_ = true;
        dispatcher.swap(dispatcher_);
    }
    cv_.notify_all();
    if (dispatcher.joinable())
        dispatcher.join();
}

Status
Session::load(const std::string &key, GameTrace trace)
{
    if (key.empty())
        return Status::fail(StatusCode::InvalidRequest,
                            "trace key must be non-empty");
    auto asset = std::make_shared<const GameTrace>(std::move(trace));
    MutexLock lk(mu_);
    if (!traces_.emplace(key, std::move(asset)).second)
        return Status::fail(StatusCode::DuplicateKey,
                            "trace key '" + key +
                                "' already loaded (assets are immutable)");
    return Status::success();
}

Status
Session::load(const std::string &key, GameId game, int width, int height,
              int frames)
{
    if (width <= 0 || height <= 0 || frames <= 0)
        return Status::fail(StatusCode::InvalidRequest,
                            "viewport and frame count must be positive");
    // The limits readTrace() applies to a trace file.
    if (!withinTraceBudget(static_cast<std::uint64_t>(width),
                           static_cast<std::uint64_t>(height),
                           static_cast<std::uint64_t>(frames)))
        return Status::fail(StatusCode::InvalidRequest, traceBudgetMessage());
    return load(key, buildGameTrace(game, width, height, frames));
}

std::shared_ptr<const GameTrace>
Session::trace(const std::string &key) const
{
    MutexLock lk(mu_);
    auto it = traces_.find(key);
    return it == traces_.end() ? nullptr : it->second;
}

std::vector<std::string>
Session::traceKeys() const
{
    std::vector<std::string> keys;
    MutexLock lk(mu_);
    keys.reserve(traces_.size());
    for (const auto &kv : traces_)
        keys.push_back(kv.first);
    return keys;
}

std::vector<RunResult>
Session::renderJobs(const GameTrace &trace,
                    const std::vector<RunConfig> &configs, unsigned threads)
{
    const std::size_t n = trace.cameras.size();
    // The span name is part of the documented trace schema (METRICS.md).
    PARGPU_TRACE_SCOPE_F("harness", "runTrace", n);
    // Non-owning: the call returns only once every job is done.
    const std::shared_ptr<const GameTrace> borrowed(
        std::shared_ptr<const GameTrace>{}, &trace);
    std::vector<JobHandle> jobs;
    jobs.reserve(configs.size());
    for (const RunConfig &config : configs) {
        // Every condition is checked before any frame renders.
        const Status st = validateRunConfig(config);
        if (!st.ok())
            fatal("invalid RunConfig: " + st.message);
        jobs.push_back(
            std::make_shared<Job>(Job::Passkey{}, "", borrowed, config));
    }
    // A zero-frame job still takes its one call, with f == 0.
    const std::size_t slots = std::max<std::size_t>(n, 1);
    std::atomic<std::size_t> completed{0}; // Not the session counter.
    ThreadPool::run(jobs.size() * slots, 1, [&](std::size_t task) {
        jobs[task / slots]->runFrame(task % slots, completed);
    }, threads);
    std::vector<RunResult> results;
    results.reserve(jobs.size());
    for (const JobHandle &job : jobs) {
        MutexLock lk(job->mu_);
        results.push_back(std::move(job->result_));
    }
    return results;
}

RunResult
Session::run(const GameTrace &trace, const RunConfig &config)
{
    return std::move(
        renderJobs(trace, {config}, static_cast<unsigned>(config.threads))
            .front());
}

std::vector<RunResult>
Session::sweep(const GameTrace &trace, const std::vector<RunConfig> &configs)
{
    return renderJobs(trace, configs, 0);
}

JobHandle
Session::submit(const std::string &key, const RunConfig &config,
                Status *status)
{
    Status st = Status::success();
    std::shared_ptr<const GameTrace> asset = trace(key);
    if (!asset)
        st = Status::fail(StatusCode::UnknownTrace,
                          "no trace loaded under key '" + key + "'");
    else
        st = validateRunConfig(config);
    if (!st.ok()) {
        if (status != nullptr)
            *status = st;
        return nullptr;
    }
    JobHandle job =
        std::make_shared<Job>(Job::Passkey{}, key, std::move(asset),
                              config);
    enqueue({job});
    if (status != nullptr)
        *status = Status::success();
    return job;
}

std::vector<JobHandle>
Session::submitSweep(const std::string &key,
                     const std::vector<RunConfig> &configs,
                     Status *status)
{
    std::shared_ptr<const GameTrace> asset = trace(key);
    Status st = Status::success();
    if (!asset)
        st = Status::fail(StatusCode::UnknownTrace,
                          "no trace loaded under key '" + key + "'");
    for (std::size_t i = 0; st.ok() && i < configs.size(); ++i) {
        st = validateRunConfig(configs[i]);
        if (!st.ok())
            st.message =
                "configs[" + std::to_string(i) + "]: " + st.message;
    }
    if (!st.ok()) {
        if (status != nullptr)
            *status = st;
        return {};
    }
    std::vector<JobHandle> jobs;
    jobs.reserve(configs.size());
    for (const RunConfig &config : configs)
        jobs.push_back(
            std::make_shared<Job>(Job::Passkey{}, key, asset, config));
    enqueue(jobs);
    if (status != nullptr)
        *status = Status::success();
    return jobs;
}

void
Session::enqueue(const std::vector<JobHandle> &jobs)
{
    if (jobs.empty())
        return;
    {
        MutexLock lk(mu_);
        // The dispatcher starts lazily so synchronous-only sessions never
        // spawn threads.
        if (!dispatcher_.joinable())
            dispatcher_ = std::thread([this] { dispatcherLoop(); });
        queue_.insert(queue_.end(), jobs.begin(), jobs.end());
    }
    submitted_.fetch_add(jobs.size(), std::memory_order_relaxed);
    cv_.notify_one();
}

bool
Session::claimFrame(JobHandle &job, std::size_t &frame)
{
    MutexLock lk(mu_);
    if (queue_.empty())
        return false;
    job = queue_.front();
    frame = next_frame_++;
    if (next_frame_ >= job->framesTotal()) {
        queue_.pop_front();
        next_frame_ = 0;
    }
    return true;
}

void
Session::dispatcherLoop()
{
    for (;;) {
        {
            UniqueLock lk(mu_);
            while (!stop_ && queue_.empty())
                cv_.wait(lk);
            if (queue_.empty())
                return; // Tearing down and fully drained.
        }
        // One pass: a loop per pool thread, each claiming (job, frame)
        // pairs until the queue is empty. A job submitted meanwhile
        // joins the running loops instead of waiting for the pass.
        PARGPU_TRACE_SPAN(span, "session", "dispatch");
        std::atomic<std::size_t> frames{0};
        ThreadPool::run(ThreadPool::defaultThreads(), 1, [&](std::size_t) {
            JobHandle job;
            std::size_t frame = 0;
            while (claimFrame(job, frame)) {
                job->runFrame(frame, completed_);
                if (frame < job->framesTotal())
                    ++frames;
            }
        });
        span.setValue(static_cast<double>(frames.load()));
    }
}

std::size_t
Session::jobsSubmitted() const
{
    return submitted_.load(std::memory_order_relaxed);
}

std::size_t
Session::jobsCompleted() const
{
    return completed_.load(std::memory_order_relaxed);
}

} // namespace pargpu
