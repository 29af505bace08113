/**
 * @file
 * Determinism guarantee of the parallel execution engine: Session::run()
 * with N threads must produce bit-identical FrameStats, images and
 * aggregates to the 1-thread run, Session::sweep() must equal per-config
 * Session::run(), and the parallel SSIM path must match the serial one
 * exactly. "One thread" means ThreadPool::setDefaultThreads(1): frames
 * in sequence, and every tile stream with its owner alone.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/threadpool.hh"
#include "harness/metrics.hh"
#include "harness/session.hh"
#include "sim/pipeline.hh"
#include "simd/dispatch.hh"
#include "texture/procedural.hh"

using namespace pargpu;

namespace
{

/** Field-by-field FrameStats equality. */
void
expectStatsEqual(const FrameStats &a, const FrameStats &b)
{
    for (const FrameCounter &c : frameCounters())
        EXPECT_EQ(a.*c.member, b.*c.member) << c.column;
    EXPECT_EQ(a.filter_policy, b.filter_policy) << "filter_policy";
    ASSERT_EQ(a.clusters.size(), b.clusters.size());
    for (std::size_t c = 0; c < a.clusters.size(); ++c) {
#define PARGPU_CEQ(field) \
    EXPECT_EQ(a.clusters[c].field, b.clusters[c].field) \
        << "cluster " << c << " " << #field
        PARGPU_CEQ(tiles);
        PARGPU_CEQ(quads);
        PARGPU_CEQ(pixels);
        PARGPU_CEQ(texels);
        PARGPU_CEQ(cycles);
        PARGPU_CEQ(filter_busy);
        PARGPU_CEQ(mem_stall);
#undef PARGPU_CEQ
    }
}

void
expectImagesEqual(const Image &a, const Image &b)
{
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.height(), b.height());
    const std::vector<Color4f> &pa = a.pixels();
    const std::vector<Color4f> &pb = b.pixels();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        // Bitwise float equality on purpose: the parallel path must do
        // the exact same arithmetic.
        ASSERT_EQ(pa[i].r, pb[i].r) << "pixel " << i;
        ASSERT_EQ(pa[i].g, pb[i].g) << "pixel " << i;
        ASSERT_EQ(pa[i].b, pb[i].b) << "pixel " << i;
        ASSERT_EQ(pa[i].a, pb[i].a) << "pixel " << i;
    }
}

void
expectRunsEqual(const RunResult &a, const RunResult &b)
{
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t f = 0; f < a.frames.size(); ++f)
        expectStatsEqual(a.frames[f], b.frames[f]);
    ASSERT_EQ(a.images.size(), b.images.size());
    for (std::size_t f = 0; f < a.images.size(); ++f)
        expectImagesEqual(a.images[f], b.images[f]);
    EXPECT_EQ(a.avg_cycles, b.avg_cycles);
    EXPECT_EQ(a.total_energy_nj, b.total_energy_nj);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
}

GameTrace
smallTrace()
{
    return buildGameTrace(GameId::HL2, 96, 80, 3);
}

/** Session::run() with one thread in the whole process. */
RunResult
runOneThread(Session &session, const GameTrace &trace, RunConfig cfg)
{
    cfg.threads = 1;
    ThreadPool::setDefaultThreads(1);
    RunResult r = session.run(trace, cfg);
    ThreadPool::setDefaultThreads(0);
    return r;
}

} // namespace

TEST(Determinism, RunSerialVsParallelBaseline)
{
    Session session;
    GameTrace trace = smallTrace();
    RunConfig parallel_cfg;
    parallel_cfg.threads = 4;
    expectRunsEqual(runOneThread(session, trace, RunConfig{}),
                    session.run(trace, parallel_cfg));
}

TEST(Determinism, RunSerialVsParallelPatu)
{
    Session session;
    GameTrace trace = smallTrace();
    RunConfig serial_cfg;
    serial_cfg.scenario = DesignScenario::Patu;
    serial_cfg.threshold = 0.4f;
    RunConfig parallel_cfg = serial_cfg;
    parallel_cfg.threads = 4;
    expectRunsEqual(runOneThread(session, trace, serial_cfg),
                    session.run(trace, parallel_cfg));
}

TEST(Determinism, ThreadCountDoesNotMatter)
{
    Session session;
    GameTrace trace = smallTrace();
    RunConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    cfg.keep_images = false;
    cfg.threads = 2;
    RunResult two = session.run(trace, cfg);
    cfg.threads = 3;
    RunResult three = session.run(trace, cfg);
    expectRunsEqual(two, three);
}

TEST(Determinism, SweepMatchesRun)
{
    Session session;
    GameTrace trace = smallTrace();
    std::vector<RunConfig> configs(3);
    configs[0].scenario = DesignScenario::Baseline;
    configs[1].scenario = DesignScenario::Patu;
    configs[1].threshold = 0.4f;
    configs[2].scenario = DesignScenario::NoAF;

    ThreadPool::setDefaultThreads(4);
    std::vector<RunResult> sweep = session.sweep(trace, configs);
    ThreadPool::setDefaultThreads(0);
    ASSERT_EQ(sweep.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i)
        expectRunsEqual(runOneThread(session, trace, configs[i]), sweep[i]);
}

// --- Tile streams on the pool -----------------------------------------
// Idle pool threads join every frame's tile streams, and the result must
// be bit-identical to one thread: same frames, same FrameStats
// (including the per-cluster shards), same aggregates — at every pool
// size, for a lone frame and for frames rendered side by side.

TEST(Determinism, PoolMatchesOneThreadPatu)
{
    Session session;
    GameTrace trace = smallTrace();
    RunConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    cfg.threshold = 0.4f;
    cfg.threads = 1;
    RunResult ref = runOneThread(session, trace, cfg);

    for (unsigned workers : {2u, 3u, 8u}) {
        ThreadPool::setDefaultThreads(workers);
        expectRunsEqual(ref, session.run(trace, cfg));
    }
    ThreadPool::setDefaultThreads(0);
}

TEST(Determinism, PoolMatchesOneThreadBaseline)
{
    Session session;
    // Baseline 16xAF: the texel-bound extreme, every pixel through the
    // full AF path (maximum memory-system pressure on the commit pass).
    GameTrace trace = smallTrace();
    RunConfig cfg;
    cfg.scenario = DesignScenario::Baseline;
    cfg.threads = 1;
    RunResult ref = runOneThread(session, trace, cfg);

    for (unsigned workers : {2u, 3u, 8u}) {
        ThreadPool::setDefaultThreads(workers);
        expectRunsEqual(ref, session.run(trace, cfg));
    }
    ThreadPool::setDefaultThreads(0);
}

TEST(Determinism, FramesSideBySideShareTheirStreams)
{
    Session session;
    // Frames partitioned across the pool, and every thread that runs out
    // of frames joins the tile streams of those still rendering.
    GameTrace trace = smallTrace();
    RunConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    cfg.threshold = 0.4f;
    RunResult ref = runOneThread(session, trace, cfg);

    for (int threads : {2, 3, 8}) {
        cfg.threads = threads;
        ThreadPool::setDefaultThreads(8);
        expectRunsEqual(ref, session.run(trace, cfg));
    }
    ThreadPool::setDefaultThreads(0);
}

TEST(Determinism, PoolRegistryIdentical)
{
    Session session;
    // "Every exported counter": the whole run registry — counters,
    // scalars (hit rates, imbalance) and histograms — must
    // serialize identically for one thread and for a shared stream.
    GameTrace trace = smallTrace();
    RunConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    cfg.threshold = 0.4f;
    cfg.threads = 1;
    cfg.keep_images = false;

    RunResult a = runOneThread(session, trace, cfg);
    ThreadPool::setDefaultThreads(4);
    RunResult b = session.run(trace, cfg);
    ThreadPool::setDefaultThreads(0);

    EXPECT_EQ(runRegistry(a).toJson().dump(1),
              runRegistry(b).toJson().dump(1));
}

TEST(Determinism, FilterModesAcrossExecutionModes)
{
    Session session;
    // Every filter mode, the stochastic ones included (they draw noise
    // only from (pixel, sample, camera-hash) counters), must reproduce
    // the one-thread run bit-for-bit in every execution mode: frames
    // side by side, a lone frame's shared streams, and both composed
    // (docs/FILTERING.md, determinism strategy).
    GameTrace trace = smallTrace();
    for (const ScenarioDesc &d : scenarioRegistry()) {
        SCOPED_TRACE(d.name);
        RunConfig cfg;
        cfg.scenario = d.id;
        RunResult ref = runOneThread(session, trace, cfg);

        RunConfig frame_cfg = cfg;
        for (int threads : {3, 8}) {
            frame_cfg.threads = threads;
            expectRunsEqual(ref, session.run(trace, frame_cfg));
        }

        RunConfig lone_cfg = cfg;
        lone_cfg.threads = 1;
        for (unsigned workers : {3u, 8u}) {
            ThreadPool::setDefaultThreads(workers);
            expectRunsEqual(ref, session.run(trace, lone_cfg));
        }

        RunConfig both_cfg = cfg;
        both_cfg.threads = 3;
        ThreadPool::setDefaultThreads(8);
        expectRunsEqual(ref, session.run(trace, both_cfg));
        ThreadPool::setDefaultThreads(0);
    }
}

TEST(Determinism, ParallelSsimMatchesSerial)
{
    Session session;
    GameTrace trace = smallTrace();
    RunConfig base_cfg;
    RunConfig patu_cfg;
    patu_cfg.scenario = DesignScenario::Patu;
    RunResult base = session.run(trace, base_cfg);
    RunResult patu = session.run(trace, patu_cfg);

    ThreadPool::setDefaultThreads(1);
    std::vector<float> serial_map =
        ssimMap(base.images[0], patu.images[0]);
    double serial_mssim = patu.mssimAgainst(base.images);

    ThreadPool::setDefaultThreads(4);
    std::vector<float> parallel_map =
        ssimMap(base.images[0], patu.images[0]);
    double parallel_mssim = patu.mssimAgainst(base.images);
    ThreadPool::setDefaultThreads(0);

    ASSERT_EQ(serial_map.size(), parallel_map.size());
    for (std::size_t i = 0; i < serial_map.size(); ++i)
        ASSERT_EQ(serial_map[i], parallel_map[i]) << "map index " << i;
    EXPECT_EQ(serial_mssim, parallel_mssim);
}

// --- SIMD tier x execution mode ---------------------------------------
// The full hot-path matrix: every runnable kernel tier under one
// thread, a lone frame's shared streams and frames side by side must
// render the exact frames of the scalar / one-thread reference.

namespace
{

/** Runnable dispatch tiers on this build and CPU (scalar always). */
std::vector<simd::SimdTier>
runnableTiers()
{
    std::vector<simd::SimdTier> tiers{simd::SimdTier::Scalar};
    const auto top = static_cast<int>(simd::detectTier());
    if (top >= static_cast<int>(simd::SimdTier::Sse))
        tiers.push_back(simd::SimdTier::Sse);
    if (top >= static_cast<int>(simd::SimdTier::Avx2))
        tiers.push_back(simd::SimdTier::Avx2);
    return tiers;
}

} // namespace

TEST(Determinism, SimdTierTimesExecutionMode)
{
    Session session;
    GameTrace trace = smallTrace();
    RunConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    cfg.threshold = 0.4f;
    cfg.threads = 1;

    const simd::SimdTier saved = simd::activeTier();
    simd::setActiveTier(simd::SimdTier::Scalar);
    RunResult ref = runOneThread(session, trace, cfg);

    for (simd::SimdTier tier : runnableTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        simd::setActiveTier(tier);

        expectRunsEqual(ref, runOneThread(session, trace, cfg));

        ThreadPool::setDefaultThreads(3);
        expectRunsEqual(ref, session.run(trace, cfg));
        ThreadPool::setDefaultThreads(0);

        RunConfig frame_cfg = cfg;
        frame_cfg.threads = 3;
        expectRunsEqual(ref, session.run(trace, frame_cfg));
    }
    simd::setActiveTier(saved);
}

TEST(Determinism, ArenaTimesTierMatrix)
{
    Session session;
    // Arena-backed scratch (the arena.* counters included) under every
    // tier, with one thread and with a shared stream.
    GameTrace trace = smallTrace();
    RunConfig cfg;
    cfg.threads = 1;

    const simd::SimdTier saved = simd::activeTier();
    simd::setActiveTier(simd::SimdTier::Scalar);
    RunResult ref = runOneThread(session, trace, cfg);

    for (simd::SimdTier tier : runnableTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        simd::setActiveTier(tier);
        ThreadPool::setDefaultThreads(3);
        expectRunsEqual(ref, session.run(trace, cfg));
        ThreadPool::setDefaultThreads(0);
        expectRunsEqual(ref, runOneThread(session, trace, cfg));
    }
    simd::setActiveTier(saved);
}

// --- Tile pass matrix --------------------------------------------------
// The tile stream decouples host workers from simulated clusters: any
// worker count (fewer, as many as, or more than the clusters) with any
// cluster count and kernel tier must reproduce the one-thread stream
// exactly — images, FrameStats and the exported registry.

namespace
{

std::string
registryJson(const RunResult &r)
{
    return runRegistry(r).toJson().dump(1);
}

} // namespace

TEST(Determinism, TilePassWorkersTimesClustersTimesTier)
{
    Session session;
    GameTrace trace = buildGameTrace(GameId::HL2, 96, 80, 2);
    const simd::SimdTier saved = simd::activeTier();
    for (unsigned clusters : {1u, 3u, 8u}) {
        for (simd::SimdTier tier : runnableTiers()) {
            SCOPED_TRACE(testing::Message()
                         << "clusters " << clusters << ", tier "
                         << simd::tierName(tier));
            simd::setActiveTier(tier);
            RunConfig cfg;
            cfg.scenario = DesignScenario::Patu;
            cfg.threshold = 0.4f;
            cfg.threads = 1;
            cfg.clusters = clusters;
            const RunResult ref = runOneThread(session, trace, cfg);
            const std::string ref_json = registryJson(ref);

            for (unsigned workers : {2u, 3u, 4u, 8u}) {
                SCOPED_TRACE(testing::Message() << "workers " << workers);
                ThreadPool::setDefaultThreads(workers);
                const RunResult got = session.run(trace, cfg);
                ThreadPool::setDefaultThreads(0);
                expectRunsEqual(ref, got);
                EXPECT_EQ(ref_json, registryJson(got));
            }
        }
    }
    simd::setActiveTier(saved);
}

namespace
{

constexpr float kFovy = 1.0f;

/**
 * Append a camera-facing rectangle spanning pixels [x0, x1) x [y0, y1)
 * of a w x h viewport at @p depth in front of overdrawCamera().
 */
void
addScreenRect(Mesh &m, int w, int h, float x0, float y0, float x1,
              float y1, float depth)
{
    const float t = std::tan(kFovy / 2) * depth;
    const auto at = [&](float px, float py) {
        return Vec3{(2 * px / w - 1) * t * w / h, (1 - 2 * py / h) * t,
                    -depth};
    };
    const auto base = static_cast<std::uint32_t>(m.vertices.size());
    m.vertices.push_back({at(x0, y0), {0, 0}});
    m.vertices.push_back({at(x1, y0), {6, 0}});
    m.vertices.push_back({at(x1, y1), {6, 5}});
    m.vertices.push_back({at(x0, y1), {0, 5}});
    for (std::uint32_t i : {0u, 1u, 2u, 0u, 2u, 3u})
        m.indices.push_back(base + i);
}

/**
 * One frame whose first busy tiles carry deep overdraw: a full-screen
 * rectangle, then 64 nearer layers over the top-left 40x20 pixels (each
 * passes early-Z, so every layer shades), in one draw; then a second
 * draw over the bottom half. With several workers the tiles behind the
 * deep ones log while the deep ones still run, so the commit frontier
 * lags and many tile slots are in flight.
 */
GameTrace
overdrawTrace()
{
    GameTrace trace;
    trace.name = "overdraw";
    trace.width = 128;
    trace.height = 96;
    const int tex = trace.scene.addTexture(std::make_unique<TextureMap>(
        128, 128, generateTexture(TextureKind::Checker, 128, 3)));
    DrawCall deep;
    deep.mesh.texture_id = tex;
    deep.backface_cull = false;
    addScreenRect(deep.mesh, 128, 96, 0, 0, 128, 96, 50);
    for (int layer = 0; layer < 64; ++layer)
        addScreenRect(deep.mesh, 128, 96, 0, 0, 40, 20,
                      40.0f - 0.5f * static_cast<float>(layer));
    trace.scene.draws.push_back(std::move(deep));
    DrawCall half;
    half.mesh.texture_id = tex;
    half.backface_cull = false;
    addScreenRect(half.mesh, 128, 96, 0, 48, 128, 96, 20);
    trace.scene.draws.push_back(std::move(half));
    Camera cam;
    cam.view = Mat4::lookAt({0, 0, 0}, {0, 0, -1}, {0, 1, 0});
    cam.proj = Mat4::perspective(kFovy, 128.0f / 96.0f, 0.1f, 100.0f);
    trace.cameras.push_back(cam);
    return trace;
}

} // namespace

TEST(Determinism, TileStreamWithLaggingCommitFrontier)
{
    Session session;
    const GameTrace trace = overdrawTrace();
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned clusters : {1u, 3u, 8u}) {
        SCOPED_TRACE(testing::Message() << "clusters " << clusters);
        RunConfig cfg;
        cfg.scenario = DesignScenario::Patu;
        cfg.threshold = 0.4f;
        cfg.threads = 1;
        cfg.clusters = clusters;
        const RunResult ref = runOneThread(session, trace, cfg);
        ASSERT_EQ(ref.frames.size(), 1u);
        // The deep tiles really are deep: every layer shades.
        EXPECT_GT(ref.frames[0].pixels_shaded, 64u * 40u * 20u);
        const std::string ref_json = registryJson(ref);

        for (unsigned workers : {2u, 3u, nproc}) {
            SCOPED_TRACE(testing::Message() << "workers " << workers);
            ThreadPool::setDefaultThreads(workers);
            const RunResult got = session.run(trace, cfg);
            ThreadPool::setDefaultThreads(0);
            expectRunsEqual(ref, got);
            EXPECT_EQ(ref_json, registryJson(got));
        }
    }
}

TEST(Determinism, ArenaCountersPinned)
{
    Session session;
    // arena.frame_bytes / arena.high_water per frame at a small
    // viewport, frozen from the simulator that still carved the color
    // plane out of its frame arena. The plane now is the output image
    // and is counted explicitly; these numbers must not move.
    const std::uint64_t kFrameBytes[3] = {342256, 342500, 342340};
    const std::uint64_t kHighWater[3] = {280544, 280588, 280460};
    GameTrace trace = smallTrace();
    for (unsigned threads : {1u, 3u}) {
        SCOPED_TRACE(testing::Message() << "threads " << threads);
        RunConfig cfg;
        cfg.threads = 1;
        cfg.keep_images = false;
        ThreadPool::setDefaultThreads(threads);
        const RunResult r = session.run(trace, cfg);
        ThreadPool::setDefaultThreads(0);
        ASSERT_EQ(r.frames.size(), 3u);
        for (std::size_t f = 0; f < 3; ++f) {
            EXPECT_EQ(r.frames[f].arena_frame_bytes, kFrameBytes[f])
                << "frame " << f;
            EXPECT_EQ(r.frames[f].arena_high_water, kHighWater[f])
                << "frame " << f;
        }
    }
}
