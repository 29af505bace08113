#include "harness/session.hh"

#include <cstdlib>
#include <iostream>
#include <utility>

#include "common/contract.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"
#include "harness/metrics.hh"
#include "power/energy.hh"
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

const EnvOverrides &
envOverrides()
{
    // One validated pass, cached for the process. Each reader below is
    // itself once-cached; touching them all here (the Session
    // constructor's first act) pins the whole environment before any
    // job runs, so server jobs can never observe a mid-run change.
    static const EnvOverrides env = [] {
        EnvOverrides e;
        e.default_threads = ThreadPool::defaultThreads();
        e.tile_parallel_forced = tileParallelForced();
        e.filter_policy = defaultFilterPolicy();
        e.texel_storage = TextureMap::defaultStorage();
        e.contract_report =
            std::getenv("PARGPU_CONTRACT_REPORT") != nullptr;
        // ContractStats harness hook: with PARGPU_CONTRACT_REPORT set,
        // dump every contract site's evaluation count at exit
        // (scripts/check.sh greps for it).
        if (e.contract_report)
            std::atexit([] { contract::statsReport(std::cerr); });
        return e;
    }();
    return env;
}

// --- Job -----------------------------------------------------------------

/** Forwards per-frame completions into the job's guarded partial state. */
class Job::Progress : public detail::RunProgress
{
  public:
    explicit Progress(Job &job) : job_(job) {}

    void
    onFrame(std::size_t index, const FrameStats &stats) override
    {
        MutexLock lk(job_.mu_);
        if (index < job_.partial_done_.size() &&
            !job_.partial_done_[index]) {
            job_.partial_[index] = stats;
            job_.partial_done_[index] = true;
            ++job_.n_done_;
        }
    }

  private:
    Job &job_;
};

Job::Job(Passkey, std::string trace_key,
         std::shared_ptr<const GameTrace> trace, const RunConfig &config)
    : trace_key_(std::move(trace_key)), trace_(std::move(trace)),
      config_(config), frames_total_(trace_->cameras.size()),
      partial_(frames_total_), partial_done_(frames_total_, false)
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
Job::execute(std::atomic<std::size_t> *completed)
{
    {
        MutexLock lk(mu_);
        state_ = State::Running;
    }
    cv_.notify_all();
    Progress progress(*this);
    RunResult run = detail::renderTrace(*trace_, config_, &progress);
    {
        MutexLock lk(mu_);
        result_ = std::move(run);
        // Count the completion before Done is published: a waiter that
        // has observed Done must observe the session counter too.
        if (completed != nullptr)
            completed->fetch_add(1, std::memory_order_relaxed);
        state_ = State::Done;
    }
    cv_.notify_all();
}

Json
Job::snapshot() const
{
    // Copy the completed frames (in frame order) under the lock, then
    // aggregate outside it — snapshots never block the run for longer
    // than the copy.
    State state;
    std::vector<FrameStats> frames;
    {
        MutexLock lk(mu_);
        state = state_;
        if (state == State::Done) {
            frames = result_.frames;
        } else {
            frames.reserve(n_done_);
            for (std::size_t i = 0; i < partial_done_.size(); ++i)
                if (partial_done_[i])
                    frames.push_back(partial_[i]);
        }
    }

    // The same serial frame-order aggregation renderTrace() performs, so
    // a snapshot taken after Done matches the final result exactly.
    RunResult partial;
    double cycles = 0.0, power = 0.0;
    for (const FrameStats &f : frames) {
        EnergyBreakdown e = computeEnergy(f);
        partial.total_energy_nj += e.total_nj();
        power += averagePowerW(e, f);
        cycles += static_cast<double>(f.total_cycles);
        partial.frames.push_back(f);
    }
    if (!frames.empty()) {
        partial.avg_cycles = cycles / static_cast<double>(frames.size());
        partial.avg_power_w = power / static_cast<double>(frames.size());
    }

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
          Json{static_cast<std::uint64_t>(frames.size())});
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

Session::Session(SessionOptions options)
    : env_(envOverrides()),
      job_workers_(options.job_workers > 0 ? options.job_workers : 2)
{
}

Session::~Session()
{
    // Swap the dispatchers out under the lock, then join without it
    // (they need the mutex to drain); queued jobs still run to
    // completion first, so surviving JobHandles always reach Done.
    std::vector<std::thread> dispatchers;
    {
        MutexLock lk(mu_);
        stop_ = true;
        dispatchers.swap(dispatchers_);
    }
    cv_.notify_all();
    for (std::thread &t : dispatchers)
        t.join();
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
    if (std::cmp_greater(width, kMaxTraceViewport) ||
        std::cmp_greater(height, kMaxTraceViewport) ||
        std::cmp_greater(frames, kMaxTraceCameras))
        return Status::fail(StatusCode::InvalidRequest,
                            "viewport sides must be at most " +
                                std::to_string(kMaxTraceViewport) +
                                " and frames at most " +
                                std::to_string(kMaxTraceCameras));
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

RunResult
Session::run(const GameTrace &trace, const RunConfig &config)
{
    return detail::renderTrace(trace, config);
}

std::vector<RunResult>
Session::sweep(const GameTrace &trace,
               const std::vector<RunConfig> &configs, int threads)
{
    return detail::renderSweep(trace, configs, threads);
}

Status
Session::sweep(const std::string &key,
               const std::vector<RunConfig> &configs,
               std::vector<RunResult> *results, int threads)
{
    std::shared_ptr<const GameTrace> asset = trace(key);
    if (!asset)
        return Status::fail(StatusCode::UnknownTrace,
                            "no trace loaded under key '" + key + "'");
    for (std::size_t i = 0; i < configs.size(); ++i) {
        Status st = validateRunConfig(configs[i]);
        if (!st.ok()) {
            st.message =
                "configs[" + std::to_string(i) + "]: " + st.message;
            return st;
        }
    }
    std::vector<RunResult> out =
        detail::renderSweep(*asset, configs, threads);
    if (results != nullptr)
        *results = std::move(out);
    return Status::success();
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
    enqueue(job);
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
    for (const RunConfig &config : configs) {
        JobHandle job = std::make_shared<Job>(Job::Passkey{}, key, asset,
                                              config);
        enqueue(job);
        jobs.push_back(std::move(job));
    }
    if (status != nullptr)
        *status = Status::success();
    return jobs;
}

void
Session::enqueue(const JobHandle &job)
{
    {
        MutexLock lk(mu_);
        // Dispatchers spin up lazily so synchronous-only sessions never
        // spawn threads.
        while (dispatchers_.size() < job_workers_)
            dispatchers_.emplace_back([this] { dispatcherLoop(); });
        queue_.push_back(job);
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);
    cv_.notify_one();
}

void
Session::dispatcherLoop()
{
    for (;;) {
        JobHandle job;
        {
            UniqueLock lk(mu_);
            while (!stop_ && queue_.empty())
                cv_.wait(lk);
            if (queue_.empty())
                return; // Tearing down and fully drained.
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job->execute(&completed_);
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
