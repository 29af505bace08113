/**
 * @file
 * Tests for the chrome-trace profiling hooks (common/tracing.hh): the
 * emitted JSON is structurally a chrome://tracing document, recording is
 * gated by Tracing::enable(), compiled-out macros record nothing, and —
 * the determinism contract — tracing never changes simulated results.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/json.hh"
#include "common/threadpool.hh"
#include "common/tracing.hh"
#include "harness/session.hh"
#include "trace/trace.hh"

using namespace pargpu;
using pargpu::trace::Tracing;

namespace pargpu_test
{
void disabledTracingBody(); // tracing_disabled_tu.cc
}

namespace
{

const GameTrace &
tinyTrace()
{
    static GameTrace t = buildGameTrace(GameId::Wolf, 128, 96, 2);
    return t;
}

/** RAII guard: leave the global collector off and empty after each test. */
struct TracingGuard
{
    ~TracingGuard()
    {
        Tracing::disable();
        Tracing::clear();
    }
};

} // namespace

TEST(TracingTest, DisabledByDefaultAndRecordsNothing)
{
    TracingGuard guard;
    ASSERT_FALSE(Tracing::enabled());
    {
        PARGPU_TRACE_SCOPE("test", "ignored");
        PARGPU_TRACE_COUNTER("test", "ignored.counter", 1);
        PARGPU_TRACE_INSTANT("test", "ignored_instant");
    }
    EXPECT_EQ(Tracing::eventCount(), 0u);
}

// Everything below the #ifndef exercises the compiled-in macro path and
// the pipeline's instrumentation; in a -DPARGPU_TRACING=OFF build those
// sites are no-ops by design, so the expectations only hold here.
#ifndef PARGPU_TRACING_DISABLED

TEST(TracingTest, SpanMacrosRecordWhenEnabled)
{
    TracingGuard guard;
    Tracing::enable();
    {
        PARGPU_TRACE_SCOPE("test", "outer");
        PARGPU_TRACE_SCOPE_F("test", "inner", 3);
    }
    PARGPU_TRACE_COUNTER("test", "count", 5);
    PARGPU_TRACE_INSTANT("test", "mark");
    EXPECT_EQ(Tracing::eventCount(), 4u);

    Tracing::clear();
    EXPECT_EQ(Tracing::eventCount(), 0u);
}

#endif // PARGPU_TRACING_DISABLED

TEST(TracingTest, EnableClearsPreviousBuffer)
{
    TracingGuard guard;
    Tracing::enable();
    Tracing::recordInstant("test", "stale");
    ASSERT_EQ(Tracing::eventCount(), 1u);
    Tracing::enable();
    EXPECT_EQ(Tracing::eventCount(), 0u);
}

TEST(TracingTest, CompiledOutMacrosRecordNothing)
{
    TracingGuard guard;
    Tracing::enable();
    pargpu_test::disabledTracingBody();
    EXPECT_EQ(Tracing::eventCount(), 0u);
}

#ifndef PARGPU_TRACING_DISABLED

TEST(TracingTest, JsonIsStructurallyAChromeTrace)
{
    Session session;
    TracingGuard guard;
    Tracing::enable();

    RunConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    cfg.keep_images = false;
    cfg.threads = 1;
    session.run(tinyTrace(), cfg);

    Tracing::disable();
    std::ostringstream os;
    Tracing::writeJson(os);

    std::string error;
    Json doc = Json::parse(os.str(), &error);
    ASSERT_TRUE(doc.isObject()) << error;
    ASSERT_TRUE(doc["traceEvents"].isArray());
    const auto &events = doc["traceEvents"].items();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(doc["displayTimeUnit"].str(), "ms");

    double prev_ts = -1.0;
    bool saw_frame_span = false, saw_dram_counter = false;
    for (const Json &e : events) {
        ASSERT_TRUE(e.isObject());
        EXPECT_TRUE(e["name"].isString());
        EXPECT_TRUE(e["cat"].isString());
        ASSERT_TRUE(e["ph"].isString());
        const std::string &ph = e["ph"].str();
        EXPECT_TRUE(ph == "X" || ph == "C" || ph == "i") << ph;
        ASSERT_TRUE(e["ts"].isNumber());
        EXPECT_GE(e["ts"].number(), prev_ts); // writeJson sorts by ts.
        prev_ts = e["ts"].number();
        EXPECT_TRUE(e["pid"].isNumber());
        EXPECT_TRUE(e["tid"].isNumber());
        if (ph == "X") {
            ASSERT_TRUE(e["dur"].isNumber());
            EXPECT_GE(e["dur"].number(), 0.0);
        }
        if (ph == "C") {
            ASSERT_TRUE(e["args"].isObject());
            EXPECT_TRUE(e["args"]["value"].isNumber());
        }
        if (ph == "i") {
            EXPECT_EQ(e["s"].str(), "t");
        }
        if (e["cat"].str() == "sim" && e["name"].str() == "frame")
            saw_frame_span = true;
        if (e["cat"].str() == "mem" && e["name"].str() == "dram.bytes")
            saw_dram_counter = true;
    }
    EXPECT_TRUE(saw_frame_span);
    EXPECT_TRUE(saw_dram_counter);
}

TEST(TracingTest, SpanArgsCarryTheValue)
{
    TracingGuard guard;
    Tracing::enable();
    {
        PARGPU_TRACE_SCOPE_F("test", "with_arg", 11);
    }
    Tracing::disable();
    std::ostringstream os;
    Tracing::writeJson(os);
    Json doc = Json::parse(os.str());
    ASSERT_EQ(doc["traceEvents"].items().size(), 1u);
    const Json &e = doc["traceEvents"][0];
    EXPECT_EQ(e["name"].str(), "with_arg");
    EXPECT_DOUBLE_EQ(e["args"]["value"].number(), 11.0);
}

TEST(TracingTest, SceneBuildsRecordBuildAndTextureSpans)
{
    TracingGuard guard;
    Tracing::enable();
    GameTrace built = buildGameTrace(GameId::Wolf, 64, 48, 1);
    const std::string path = "tracing_test_scene.pgtrace";
    ASSERT_TRUE(writeTrace(built, path));
    bool ok = false;
    GameTrace loaded = readTrace(path, ok);
    std::remove(path.c_str());
    ASSERT_TRUE(ok);
    Tracing::disable();

    std::ostringstream os;
    Tracing::writeJson(os);
    Json doc = Json::parse(os.str());
    std::vector<const Json *> builds, textures;
    for (const Json &e : doc["traceEvents"].items()) {
        if (e["cat"].str() != "scenes")
            continue;
        EXPECT_EQ(e["ph"].str(), "X");
        if (e["name"].str() == "build")
            builds.push_back(&e);
        else if (e["name"].str() == "texture")
            textures.push_back(&e);
    }
    // One build span each for buildGameTrace() and the readTrace()
    // rebuild, carrying the texture count; one texture span per texture,
    // carrying its side, inside a build span.
    const std::size_t n = built.recipes.size();
    ASSERT_EQ(builds.size(), 2u);
    ASSERT_EQ(textures.size(), 2 * n);
    for (const Json *b : builds)
        EXPECT_DOUBLE_EQ((*b)["args"]["value"].number(),
                         static_cast<double>(n));
    for (std::size_t i = 0; i < textures.size(); ++i) {
        const Json &t = *textures[i];
        EXPECT_DOUBLE_EQ(t["args"]["value"].number(),
                         static_cast<double>(built.recipes[i % n].size));
        const Json &b = *builds[i / n];
        EXPECT_GE(t["ts"].number(), b["ts"].number());
        EXPECT_LE(t["ts"].number() + t["dur"].number(),
                  b["ts"].number() + b["dur"].number());
    }
}

TEST(TracingTest, SubmittedJobRecordsDispatchSpan)
{
    TracingGuard guard;
    Tracing::enable();
    {
        Session session;
        ASSERT_TRUE(session.load("w", GameId::Wolf, 64, 48, 2).ok());
        RunConfig cfg;
        cfg.keep_images = false;
        JobHandle job = session.submit("w", cfg);
        ASSERT_NE(job, nullptr);
        job->wait();
        // Teardown joins the dispatcher, so its pass span has ended.
    }
    Tracing::disable();

    std::ostringstream os;
    Tracing::writeJson(os);
    Json doc = Json::parse(os.str());
    std::vector<const Json *> passes, frames;
    for (const Json &e : doc["traceEvents"].items()) {
        if (e["cat"].str() == "session" && e["name"].str() == "dispatch")
            passes.push_back(&e);
        else if (e["cat"].str() == "harness" &&
                 e["name"].str() == "renderFrame")
            frames.push_back(&e);
    }
    // One job queued in one piece: one pass, carrying both frames, and
    // both frame spans inside it.
    ASSERT_EQ(passes.size(), 1u);
    const Json &pass = *passes[0];
    EXPECT_EQ(pass["ph"].str(), "X");
    EXPECT_DOUBLE_EQ(pass["args"]["value"].number(), 2.0);
    ASSERT_EQ(frames.size(), 2u);
    for (const Json *f : frames) {
        EXPECT_GE((*f)["ts"].number(), pass["ts"].number());
        EXPECT_LE((*f)["ts"].number() + (*f)["dur"].number(),
                  pass["ts"].number() + pass["dur"].number());
    }
}

TEST(TracingTest, OneWorkerFrameRecordsTileStream)
{
    TracingGuard guard;
    Session session;
    RunConfig cfg;
    cfg.keep_images = false;
    cfg.threads = 1;
    // One pool thread: each tile stream has its owner alone.
    ThreadPool::setDefaultThreads(1);
    Tracing::enable();
    const RunResult r = session.run(tinyTrace(), cfg);
    Tracing::disable();
    ThreadPool::setDefaultThreads(0);

    std::ostringstream os;
    Tracing::writeJson(os);
    Json doc = Json::parse(os.str());
    std::size_t spans = 0, counters = 0;
    double logged = 0;
    for (const Json &e : doc["traceEvents"].items()) {
        if (e["cat"].str() != "sim")
            continue;
        const std::string name = e["name"].str();
        EXPECT_NE(name, "l1");
        EXPECT_NE(name, "commit");
        if (name == "tiles") {
            EXPECT_EQ(e["ph"].str(), "X");
            logged += e["args"]["value"].number();
            ++spans;
        } else if (name == "tiles.in_flight") {
            // One worker streams each tile through one slot.
            EXPECT_DOUBLE_EQ(e["args"]["value"].number(), 1.0);
            ++counters;
        }
    }
    // One tiles span and one in-flight sample per draw with busy tiles;
    // the spans' values add up to every tile the frames processed.
    std::uint64_t tiles = 0;
    for (const FrameStats &f : r.frames)
        for (const ClusterStats &c : f.clusters)
            tiles += c.tiles;
    EXPECT_GT(spans, 0u);
    EXPECT_EQ(spans, counters);
    EXPECT_DOUBLE_EQ(logged, static_cast<double>(tiles));
}

#endif // PARGPU_TRACING_DISABLED

TEST(TracingTest, WriteFileRoundTrips)
{
    TracingGuard guard;
    Tracing::enable();
    Tracing::recordInstant("test", "filed");
    Tracing::disable();

    const std::string path = "tracing_test_out.json";
    ASSERT_TRUE(Tracing::writeFile(path));
    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    std::string error;
    Json doc = Json::parse(ss.str(), &error);
    ASSERT_TRUE(doc.isObject()) << error;
    EXPECT_EQ(doc["traceEvents"].items().size(), 1u);
    std::remove(path.c_str());
}

// The determinism contract doubles as the overhead guard from the issue:
// the acceptance bound is a <= 1% simulated-cycle delta with tracing on,
// and because tracing observes host time only, the delta is exactly zero.
TEST(TracingTest, SimulatedResultsBitIdenticalWithTracingOn)
{
    Session session;
    TracingGuard guard;
    RunConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    cfg.keep_images = false;
    cfg.threads = 1;

    ASSERT_FALSE(Tracing::enabled());
    RunResult off = session.run(tinyTrace(), cfg);

    Tracing::enable();
    RunResult on = session.run(tinyTrace(), cfg);
    Tracing::disable();
#ifndef PARGPU_TRACING_DISABLED
    EXPECT_GT(Tracing::eventCount(), 0u);
#endif

    ASSERT_EQ(off.frames.size(), on.frames.size());
    for (std::size_t i = 0; i < off.frames.size(); ++i) {
        EXPECT_EQ(off.frames[i].total_cycles, on.frames[i].total_cycles);
        EXPECT_EQ(off.frames[i].texels, on.frames[i].texels);
        EXPECT_EQ(off.frames[i].dram_reads, on.frames[i].dram_reads);
        EXPECT_EQ(off.frames[i].totalTraffic(), on.frames[i].totalTraffic());
    }
    EXPECT_DOUBLE_EQ(off.avg_cycles, on.avg_cycles);
    EXPECT_DOUBLE_EQ(off.total_energy_nj, on.total_energy_nj);
}
