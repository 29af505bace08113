/**
 * @file
 * Unit tests for the Session facade (src/harness/session.hh): typed
 * Status reporting, immutable shared assets, concurrent jobs
 * bit-identical to the serial borrowed-trace sweep, snapshot streaming,
 * and job handles surviving Session teardown.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "harness/metrics.hh"
#include "harness/session.hh"

using namespace pargpu;

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

/** The full metrics document (registry included) for one run. */
std::string
metricsDump(const RunConfig &config, const RunResult &run)
{
    RunMetadata meta;
    meta.tool = "session_test";
    meta.workload = tinyTrace().name;
    meta.width = tinyTrace().width;
    meta.height = tinyTrace().height;
    meta.frames = static_cast<int>(tinyTrace().cameras.size());
    return metricsJson(meta, config, run).dump();
}

/**
 * Byte-level equality of two runs under @p config: every per-frame
 * counter, the aggregates and the full stat registry (compared through
 * the exporter, the document a server ships), plus raw image bytes.
 */
void
expectRunsIdentical(const RunConfig &config, const RunResult &a,
                    const RunResult &b)
{
    ASSERT_EQ(a.frames.size(), b.frames.size());
    EXPECT_EQ(a.avg_cycles, b.avg_cycles);
    EXPECT_EQ(a.total_energy_nj, b.total_energy_nj);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(metricsDump(config, a), metricsDump(config, b));
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

TEST(SessionTest, EnvSnapshotIsProcessWideAndConsistent)
{
    Session session;
    const EnvOverrides &env = session.env();
    EXPECT_EQ(&env, &envOverrides());
    EXPECT_GE(env.default_threads, 1u);
    EXPECT_TRUE(isKnownFilterPolicy(env.filter_policy));
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

TEST(SessionTest, KeyedSweepMatchesBorrowedSweepExactly)
{
    const std::vector<RunConfig> configs = sweepConfigs();
    Session session;
    // The borrowed-trace sweep, forced serial: the reference ordering.
    std::vector<RunResult> serial = session.sweep(tinyTrace(), configs, 1);

    ASSERT_TRUE(session.load("w", makeTiny()).ok());
    std::vector<RunResult> keyed;
    Status st = session.sweep("w", configs, &keyed);
    ASSERT_TRUE(st.ok()) << st.message;
    ASSERT_EQ(keyed.size(), serial.size());
    // Byte-identical through the exporter: metrics JSON, counters and
    // aggregates, plus raw images (the acceptance criterion).
    for (std::size_t i = 0; i < keyed.size(); ++i)
        expectRunsIdentical(configs[i], keyed[i], serial[i]);

    Status missing = session.sweep("missing", configs, nullptr);
    EXPECT_EQ(missing.code, StatusCode::UnknownTrace);
}

TEST(SessionTest, ConcurrentSubmitBitIdenticalToSerialSweep)
{
    const std::vector<RunConfig> configs = sweepConfigs();
    // Four dispatchers so jobs genuinely overlap (each additionally
    // fans frames onto the shared pool).
    Session session(SessionOptions{4});
    std::vector<RunResult> serial = session.sweep(tinyTrace(), configs, 1);
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
    StatRegistry reg;
    buildRunRegistry(job->result(), reg);
    EXPECT_EQ(snap["registry"].dump(), reg.snapshot().toJson().dump());
}

TEST(SessionTest, JobHandlesSurviveSessionTeardown)
{
    std::vector<JobHandle> jobs;
    {
        Session session(SessionOptions{2});
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
