/**
 * @file
 * Unit tests for the Session facade (src/harness/session.hh): typed
 * Status reporting, immutable shared assets, concurrent jobs
 * bit-identical to the serial borrowed-trace sweep and to run() whatever
 * the frame count, zero-frame jobs and runs, sweeps independent of the
 * thread count, a synchronous run() beside in-flight jobs, snapshot
 * streaming, job handles surviving Session teardown, and threads that
 * run out of frames joining the last frame's tiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "common/threadpool.hh"
#include "common/tracing.hh"
#include "harness/metrics.hh"
#include "harness/session.hh"
#include "tile_spans.hh"
#include "trace/trace.hh"

using namespace pargpu;
using pargpu::trace::Tracing;

namespace
{

const GameTrace &
tinyTrace()
{
    static GameTrace t = buildGameTrace(GameId::Wolf, 96, 72, 3);
    return t;
}

/**
 * A fresh trace identical to tinyTrace(), movable into Session::load()
 * (GameTrace is move-only). Workload construction is deterministic, so
 * runs on the two instances are bit-identical.
 */
GameTrace
makeTiny()
{
    return buildGameTrace(GameId::Wolf, 96, 72, 3);
}

/** The sweep conditions the concurrency tests compare across paths. */
std::vector<RunConfig>
sweepConfigs()
{
    std::vector<RunConfig> configs;
    for (DesignScenario s :
         {DesignScenario::Baseline, DesignScenario::Patu,
          DesignScenario::AfSsimNTxds}) {
        RunConfig c;
        c.scenario = s;
        configs.push_back(c);
    }
    RunConfig tweaked;
    tweaked.scenario = DesignScenario::Patu;
    tweaked.threshold = 0.8f;
    tweaked.tc_scale = 2;
    configs.push_back(tweaked);
    return configs;
}

/** session.sweep() on a one-thread pool: the reference ordering. */
std::vector<RunResult>
serialSweep(Session &session, const GameTrace &trace,
            const std::vector<RunConfig> &configs)
{
    ThreadPool::setDefaultThreads(1);
    std::vector<RunResult> serial = session.sweep(trace, configs);
    ThreadPool::setDefaultThreads(0);
    return serial;
}

/** The full metrics document (registry included) for one run. */
std::string
metricsDump(const RunConfig &config, const RunResult &run,
            const GameTrace &trace = tinyTrace())
{
    RunMetadata meta;
    meta.tool = "session_test";
    meta.workload = trace.name;
    meta.width = trace.width;
    meta.height = trace.height;
    meta.frames = static_cast<int>(trace.cameras.size());
    return metricsJson(meta, config, run).dump();
}

/**
 * Byte-level equality of two runs of @p trace under @p config: every
 * per-frame counter, the aggregates and the full stat registry
 * (compared through the exporter, the document a server ships), plus
 * raw image bytes.
 */
void
expectRunsIdentical(const RunConfig &config, const RunResult &a,
                    const RunResult &b, const GameTrace &trace = tinyTrace())
{
    ASSERT_EQ(a.frames.size(), b.frames.size());
    EXPECT_EQ(a.avg_cycles, b.avg_cycles);
    EXPECT_EQ(a.total_energy_nj, b.total_energy_nj);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(metricsDump(config, a, trace), metricsDump(config, b, trace));
    ASSERT_EQ(a.images.size(), b.images.size());
    for (std::size_t i = 0; i < a.images.size(); ++i) {
        ASSERT_EQ(a.images[i].pixels().size(), b.images[i].pixels().size());
        EXPECT_EQ(std::memcmp(a.images[i].pixels().data(),
                              b.images[i].pixels().data(),
                              a.images[i].pixels().size() *
                                  sizeof(Color4f)),
                  0)
            << "image " << i;
    }
}

} // namespace

TEST(StatusTest, CodesHaveStableWireNames)
{
    EXPECT_STREQ(statusCodeName(StatusCode::Ok), "ok");
    EXPECT_STREQ(statusCodeName(StatusCode::InvalidConfig),
                 "invalid_config");
    EXPECT_STREQ(statusCodeName(StatusCode::UnknownTrace),
                 "unknown_trace");
    EXPECT_STREQ(statusCodeName(StatusCode::DuplicateKey),
                 "duplicate_key");
    EXPECT_STREQ(statusCodeName(StatusCode::InvalidRequest),
                 "invalid_request");
    EXPECT_STREQ(statusCodeName(StatusCode::ShuttingDown),
                 "shutting_down");
    EXPECT_STREQ(statusCodeName(StatusCode::IoError), "io_error");
}

TEST(StatusTest, ValidateRunConfigJoinsEveryViolation)
{
    EXPECT_TRUE(validateRunConfig(RunConfig{}).ok());

    RunConfig bad;
    bad.threshold = 1.5f;
    bad.tc_scale = 3;
    Status st = validateRunConfig(bad);
    EXPECT_EQ(st.code, StatusCode::InvalidConfig);
    // Both violations appear, joined, with the configErrorMessage() text.
    EXPECT_NE(st.message.find(configErrorMessage(ConfigError::BadThreshold)),
              std::string::npos);
    EXPECT_NE(st.message.find(configErrorMessage(ConfigError::BadTcScale)),
              std::string::npos);
    EXPECT_NE(st.message.find("; "), std::string::npos);
}

TEST(StatusTest, ValidateRejectsUnregisteredScenario)
{
    for (const ScenarioDesc &d : scenarioRegistry()) {
        RunConfig cfg;
        cfg.scenario = d.id;
        EXPECT_TRUE(cfg.validate().empty()) << d.name;
    }
    RunConfig bad;
    bad.scenario = static_cast<DesignScenario>(99);
    EXPECT_EQ(bad.validate(),
              std::vector<ConfigError>{ConfigError::BadScenario});
    const Status st = validateRunConfig(bad);
    EXPECT_EQ(st.code, StatusCode::InvalidConfig);
    EXPECT_EQ(st.message, configErrorMessage(ConfigError::BadScenario));
    Session session;
    ASSERT_TRUE(session.load("w", makeTiny()).ok());
    Status submitted;
    EXPECT_EQ(session.submit("w", bad, &submitted), nullptr);
    EXPECT_EQ(submitted.code, StatusCode::InvalidConfig);
}

TEST(SessionTest, LoadRejectsBadAndDuplicateKeys)
{
    Session session;
    EXPECT_EQ(session.load("", GameTrace{}).code,
              StatusCode::InvalidRequest);
    EXPECT_EQ(session.load("w", GameId::Wolf, 0, 48, 1).code,
              StatusCode::InvalidRequest);

    ASSERT_TRUE(session.load("w", makeTiny()).ok());
    Status dup = session.load("w", makeTiny());
    EXPECT_EQ(dup.code, StatusCode::DuplicateKey);
    EXPECT_NE(dup.message.find("'w'"), std::string::npos);
    EXPECT_EQ(session.traceKeys(), std::vector<std::string>{"w"});
}

TEST(SessionTest, LoadEnforcesThePixelFrameBudget)
{
    Session session;
    // Every side and the frame count are at their own caps; only the
    // product is over budget.
    const Status huge = session.load("h", GameId::Wolf, 16384, 16384,
                                     1 << 20);
    EXPECT_EQ(huge.code, StatusCode::InvalidRequest);
    EXPECT_EQ(huge.message, traceBudgetMessage());
    EXPECT_EQ(session.load("h", GameId::Wolf, 16384, 16384, 5).code,
              StatusCode::InvalidRequest);
    // Exactly kMaxTracePixelFrames.
    EXPECT_TRUE(session.load("h", GameId::Wolf, 16384, 16384, 4).ok());
}

TEST(SessionTest, AssetsAreSharedReadOnlyAcrossJobs)
{
    Session session;
    ASSERT_TRUE(session.load("w", makeTiny()).ok());
    std::shared_ptr<const GameTrace> asset = session.trace("w");
    ASSERT_NE(asset, nullptr);
    // Every lookup and every job references the same immutable object —
    // no copies, no reloads.
    EXPECT_EQ(session.trace("w").get(), asset.get());
    RunConfig cfg;
    cfg.keep_images = false;
    JobHandle a = session.submit("w", cfg);
    JobHandle b = session.submit("w", cfg);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    a->wait();
    b->wait();
    EXPECT_EQ(session.trace("w").get(), asset.get());
    expectRunsIdentical(cfg, a->result(), b->result());
}

TEST(SessionTest, SubmitReportsTypedFailures)
{
    Session session;
    Status st;
    EXPECT_EQ(session.submit("missing", RunConfig{}, &st), nullptr);
    EXPECT_EQ(st.code, StatusCode::UnknownTrace);
    EXPECT_TRUE(session.submitSweep("missing", sweepConfigs(), &st).empty());
    EXPECT_EQ(st.code, StatusCode::UnknownTrace);
    EXPECT_NE(st.message.find("'missing'"), std::string::npos);

    ASSERT_TRUE(session.load("w", makeTiny()).ok());
    RunConfig bad;
    bad.threshold = 2.0f;
    EXPECT_EQ(session.submit("w", bad, &st), nullptr);
    EXPECT_EQ(st.code, StatusCode::InvalidConfig);

    // submitSweep is all-or-nothing and labels the offending index.
    std::vector<RunConfig> configs(3);
    configs[2].tc_scale = 5;
    EXPECT_TRUE(session.submitSweep("w", configs, &st).empty());
    EXPECT_EQ(st.code, StatusCode::InvalidConfig);
    EXPECT_NE(st.message.find("configs[2]"), std::string::npos);
    EXPECT_EQ(session.jobsSubmitted(), 0u);
}

TEST(SessionTest, ConcurrentSubmitBitIdenticalToSerialSweep)
{
    const std::vector<RunConfig> configs = sweepConfigs();
    // Every job's frames share the pool, so jobs genuinely overlap.
    Session session;
    std::vector<RunResult> serial = serialSweep(session, tinyTrace(), configs);
    ASSERT_TRUE(session.load("w", makeTiny()).ok());
    Status st;
    std::vector<JobHandle> jobs = session.submitSweep("w", configs, &st);
    ASSERT_TRUE(st.ok()) << st.message;
    ASSERT_EQ(jobs.size(), configs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i]->wait();
        EXPECT_EQ(jobs[i]->state(), Job::State::Done);
        EXPECT_EQ(jobs[i]->framesCompleted(), jobs[i]->framesTotal());
        expectRunsIdentical(configs[i], jobs[i]->result(), serial[i]);
    }
    EXPECT_EQ(session.jobsSubmitted(), configs.size());
    EXPECT_EQ(session.jobsCompleted(), configs.size());
}

TEST(SessionTest, SnapshotAfterDoneMatchesFinalRegistry)
{
    Session session;
    ASSERT_TRUE(session.load("w", makeTiny()).ok());
    RunConfig cfg;
    cfg.keep_images = false;
    JobHandle job = session.submit("w", cfg);
    ASSERT_NE(job, nullptr);
    job->wait();

    Json snap = job->snapshot();
    EXPECT_EQ(snap["state"].str(), "done");
    EXPECT_EQ(snap["trace"].str(), "w");
    EXPECT_EQ(static_cast<std::size_t>(snap["frames_total"].number()),
              job->framesTotal());
    EXPECT_EQ(snap["frames_completed"].number(),
              snap["frames_total"].number());
    EXPECT_EQ(snap["aggregate"]["avg_cycles"].number(),
              job->result().avg_cycles);

    // The snapshot registry is the same document metricsJson() derives
    // from the final result.
    EXPECT_EQ(snap["registry"].dump(),
              runRegistry(job->result()).toJson().dump());
}

TEST(SessionTest, JobHandlesSurviveSessionTeardown)
{
    std::vector<JobHandle> jobs;
    {
        Session session;
        ASSERT_TRUE(session.load("w", makeTiny()).ok());
        RunConfig cfg;
        cfg.keep_images = false;
        for (int i = 0; i < 4; ++i) {
            JobHandle j = session.submit("w", cfg);
            ASSERT_NE(j, nullptr);
            jobs.push_back(j);
        }
        // Session destroyed here with jobs possibly still queued:
        // teardown drains the queue, so every accepted job completes.
    }
    for (const JobHandle &job : jobs) {
        EXPECT_EQ(job->state(), Job::State::Done);
        // The handle keeps the shared asset alive past the Session.
        EXPECT_EQ(job->framesCompleted(), job->framesTotal());
        EXPECT_FALSE(job->result().frames.empty());
    }
    RunConfig cfg;
    cfg.keep_images = false;
    expectRunsIdentical(cfg, jobs.front()->result(),
                        jobs.back()->result());
}

TEST(SessionTest, JobsFromTwoThreadsMatchRunAcrossFrameCounts)
{
    // Three traces of 1, 2 and 3 frames over two games, and two threads
    // submitting jobs on all of them at once: their frames interleave in
    // the one queue, yet every job equals run() byte for byte.
    Session session;
    const std::vector<std::pair<std::string, GameId>> traces = {
        {"wolf1", GameId::Wolf}, {"doom2", GameId::Doom3},
        {"wolf3", GameId::Wolf}};
    for (std::size_t i = 0; i < traces.size(); ++i)
        ASSERT_TRUE(session
                        .load(traces[i].first, traces[i].second, 96, 72,
                              static_cast<int>(i + 1))
                        .ok());
    const std::vector<RunConfig> configs = sweepConfigs();

    std::vector<JobHandle> jobs[2];
    auto submitter = [&](std::size_t t) {
        for (std::size_t c = t; c < configs.size(); c += 2)
            for (const auto &trace : traces)
                jobs[t].push_back(session.submit(trace.first, configs[c]));
    };
    std::thread other(submitter, 1);
    submitter(0);
    other.join();

    for (std::size_t t = 0; t < 2; ++t) {
        for (const JobHandle &job : jobs[t]) {
            ASSERT_NE(job, nullptr);
            const GameTrace &trace = *session.trace(job->traceKey());
            const RunResult &got = job->result();
            EXPECT_EQ(job->state(), Job::State::Done);
            EXPECT_EQ(got.frames.size(), trace.cameras.size());
            expectRunsIdentical(job->config(), got,
                                session.run(trace, job->config()), trace);
        }
    }
    EXPECT_EQ(session.jobsCompleted(), configs.size() * traces.size());
}

TEST(SessionTest, ZeroFrameJobReachesDone)
{
    Session session;
    GameTrace empty = makeTiny();
    empty.cameras.clear();
    ASSERT_TRUE(session.load("empty", std::move(empty)).ok());
    JobHandle job = session.submit("empty", RunConfig{});
    ASSERT_NE(job, nullptr);
    job->wait();
    EXPECT_EQ(job->state(), Job::State::Done);
    EXPECT_EQ(job->framesTotal(), 0u);
    EXPECT_EQ(job->framesCompleted(), 0u);
    EXPECT_TRUE(job->result().frames.empty());
    EXPECT_TRUE(job->result().images.empty());
    EXPECT_EQ(job->result().avg_cycles, 0.0);
    EXPECT_EQ(job->snapshot()["state"].str(), "done");
    EXPECT_EQ(session.jobsCompleted(), 1u);
}

TEST(SessionTest, SweepBytesIndependentOfThreadCount)
{
    // 3 conditions x 3 frames: nine pool tasks, folded per condition by
    // whichever task lands its last frame.
    std::vector<RunConfig> configs = sweepConfigs();
    configs.resize(3);
    ASSERT_EQ(tinyTrace().cameras.size(), 3u);
    Session session;
    const std::vector<RunResult> serial =
        serialSweep(session, tinyTrace(), configs);
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned threads : {2u, nproc}) {
        ThreadPool::setDefaultThreads(threads);
        const std::vector<RunResult> got = session.sweep(tinyTrace(), configs);
        ThreadPool::setDefaultThreads(0);
        ASSERT_EQ(got.size(), serial.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            expectRunsIdentical(configs[i], got[i], serial[i]);
    }
}

TEST(SessionTest, SyncRunDuringSubmitSweepMatchesSerialRun)
{
    // A run() from a second thread renders its frames on the pool the
    // dispatcher is using for an in-flight sweep; neither perturbs the
    // other's bytes.
    const std::vector<RunConfig> configs = sweepConfigs();
    RunConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    cfg.threads = 1;
    Session session;
    const RunResult serial_run = session.run(tinyTrace(), cfg);
    const std::vector<RunResult> serial =
        serialSweep(session, tinyTrace(), configs);
    ASSERT_TRUE(session.load("w", makeTiny()).ok());

    Status st;
    std::vector<JobHandle> jobs = session.submitSweep("w", configs, &st);
    ASSERT_TRUE(st.ok()) << st.message;
    RunResult concurrent;
    cfg.threads = 0;
    std::thread runner([&] { concurrent = session.run(tinyTrace(), cfg); });
    runner.join();
    expectRunsIdentical(cfg, concurrent, serial_run);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectRunsIdentical(configs[i], jobs[i]->result(), serial[i]);
    EXPECT_EQ(session.jobsCompleted(), configs.size());
}

TEST(SessionTest, SyncCallsLeaveJobCountersAlone)
{
    // run() and sweep() render through jobs of their own, which the
    // session counters (the asynchronous surface's) do not count.
    Session session;
    session.run(tinyTrace(), RunConfig{});
    session.sweep(tinyTrace(), sweepConfigs());
    EXPECT_EQ(session.jobsSubmitted(), 0u);
    EXPECT_EQ(session.jobsCompleted(), 0u);
}

TEST(SessionTest, SyncZeroFrameRunIsEmpty)
{
    GameTrace empty = makeTiny();
    empty.cameras.clear();
    Session session;
    const std::vector<RunResult> runs = session.sweep(empty, sweepConfigs());
    ASSERT_EQ(runs.size(), sweepConfigs().size());
    for (const RunResult &r : runs) {
        EXPECT_TRUE(r.frames.empty());
        EXPECT_TRUE(r.images.empty());
        EXPECT_EQ(r.avg_cycles, 0.0);
    }
}

#ifndef PARGPU_TRACING_DISABLED

TEST(SessionTest, LastFrameOfASweepGetsHelpers)
{
    // Four one-frame conditions on four threads: the baseline frame
    // (16x AF everywhere) costs the most, so it finishes last, and the
    // threads done with the cheap noaf frames join its tile streams.
    // Every stream participant records one sim/tiles span per draw.
    const GameTrace trace = buildGameTrace(GameId::HL2, 192, 144, 1);
    std::vector<RunConfig> configs(4);
    configs[0].scenario = DesignScenario::Baseline;
    for (std::size_t i = 1; i < configs.size(); ++i)
        configs[i].scenario = DesignScenario::NoAF;
    Session session;
    const std::vector<RunResult> serial = serialSweep(session, trace, configs);
    ThreadPool::setDefaultThreads(4);
    test::TileSpans n;
    // A helper joins only once it wakes; retry rather than flake.
    for (int attempt = 0; attempt < 5 && n.spans <= n.draws; ++attempt) {
        Tracing::enable();
        const std::vector<RunResult> got = session.sweep(trace, configs);
        Tracing::disable();
        n = test::countTileSpans();
        Tracing::clear();
        ASSERT_EQ(got.size(), serial.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            expectRunsIdentical(configs[i], got[i], serial[i], trace);
    }
    ThreadPool::setDefaultThreads(0);
    EXPECT_GT(n.draws, 0u);
    EXPECT_GT(n.spans, n.draws);
}

#endif // PARGPU_TRACING_DISABLED
