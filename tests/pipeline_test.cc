/**
 * @file
 * Unit tests for the full GPU pipeline simulator on small controlled
 * scenes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/threadpool.hh"
#include "common/tracing.hh"
#include "scenes/meshes.hh"
#include "sim/pipeline.hh"
#include "texture/procedural.hh"
#include "tile_spans.hh"

using namespace pargpu;
using pargpu::trace::Tracing;

namespace
{

// A minimal scene: one textured ground plane receding from the camera.
Scene
groundScene(FilterMode filter = FilterMode::Anisotropic)
{
    Scene scene;
    int tex = scene.addTexture(std::make_unique<TextureMap>(
        256, 256, generateTexture(TextureKind::Checker, 256, 3)));
    DrawCall d;
    d.mesh = makeGrid({-50, 0, 10}, {100, 0, 0}, {0, 0, -200}, 4, 8,
                      30.0f, 60.0f, tex);
    d.filter = filter;
    scene.draws.push_back(std::move(d));
    return scene;
}

Camera
standingCamera(int w, int h)
{
    Camera cam;
    cam.eye = {0, 1.8f, 0};
    cam.view = Mat4::lookAt(cam.eye, {0, 1.4f, -10}, {0, 1, 0});
    cam.proj = Mat4::perspective(1.1f, static_cast<float>(w) / h, 0.3f,
                                 400.0f);
    return cam;
}

GpuConfig
configFor(DesignScenario s, float threshold = 0.4f)
{
    GpuConfig c;
    c.patu.scenario = s;
    c.patu.threshold = threshold;
    return c;
}

constexpr float kFovy = 1.0f;

/** Camera at the origin looking down -z, for addScreenRect(). */
Camera
screenCamera(int w, int h)
{
    Camera cam;
    cam.view = Mat4::lookAt({0, 0, 0}, {0, 0, -1}, {0, 1, 0});
    cam.proj = Mat4::perspective(kFovy, static_cast<float>(w) / h, 0.1f,
                                 100.0f);
    return cam;
}

/**
 * A draw of one camera-facing rectangle spanning pixels [x0, x1) x
 * [y0, y1) of a w x h viewport at @p depth in front of screenCamera().
 */
DrawCall
screenRect(int w, int h, float x0, float y0, float x1, float y1,
           float depth)
{
    const float t = std::tan(kFovy / 2) * depth;
    const auto at = [&](float px, float py) {
        return Vec3{(2 * px / w - 1) * t * w / h, (1 - 2 * py / h) * t,
                    -depth};
    };
    DrawCall d;
    d.backface_cull = false;
    d.mesh.vertices = {{at(x0, y0), {0, 0}}, {at(x1, y0), {3, 0}},
                       {at(x1, y1), {3, 3}}, {at(x0, y1), {0, 3}}};
    d.mesh.indices = {0, 1, 2, 0, 2, 3};
    return d;
}

/** The scene's one texture: a 128x128 checker. */
Scene
checkerScene()
{
    Scene scene;
    scene.addTexture(std::make_unique<TextureMap>(
        128, 128, generateTexture(TextureKind::Checker, 128, 3)));
    return scene;
}

std::uint64_t
tilesOf(const FrameStats &s)
{
    std::uint64_t tiles = 0;
    for (const ClusterStats &c : s.clusters)
        tiles += c.tiles;
    return tiles;
}

/**
 * Render @p scene with one thread, then with 2, 3 and 4 pool threads
 * free to join its tile streams, and expect every frame to match the
 * one-thread frame bit for bit.
 */
FrameOutput
expectPoolMatchesOneThread(const Scene &scene, int w, int h)
{
    const GpuConfig cfg = configFor(DesignScenario::Patu);
    GpuSimulator serial(cfg);
    ThreadPool::setDefaultThreads(1);
    FrameOutput ref = serial.renderFrame(scene, screenCamera(w, h), w, h);
    GpuSimulator tiled(cfg);
    for (unsigned workers : {2u, 3u, 4u}) {
        SCOPED_TRACE(testing::Message() << "workers " << workers);
        ThreadPool::setDefaultThreads(workers);
        const FrameOutput got =
            tiled.renderFrame(scene, screenCamera(w, h), w, h);
        ThreadPool::setDefaultThreads(0);
        EXPECT_EQ(ref.stats.total_cycles, got.stats.total_cycles);
        EXPECT_EQ(ref.stats.pixels_shaded, got.stats.pixels_shaded);
        EXPECT_EQ(ref.stats.texels, got.stats.texels);
        EXPECT_EQ(ref.stats.texture_mem_stall, got.stats.texture_mem_stall);
        EXPECT_EQ(ref.stats.fb_simd_fills, got.stats.fb_simd_fills);
        EXPECT_EQ(ref.stats.shader_busy_cycles,
                  got.stats.shader_busy_cycles);
        EXPECT_EQ(ref.stats.l1_misses, got.stats.l1_misses);
        EXPECT_EQ(ref.stats.llc_misses, got.stats.llc_misses);
        EXPECT_EQ(ref.stats.dram_row_hits, got.stats.dram_row_hits);
        EXPECT_EQ(ref.stats.totalTraffic(), got.stats.totalTraffic());
        EXPECT_EQ(ref.stats.arena_frame_bytes, got.stats.arena_frame_bytes);
        EXPECT_EQ(ref.stats.clusters.size(), got.stats.clusters.size());
        for (std::size_t c = 0; c < std::min(ref.stats.clusters.size(),
                                             got.stats.clusters.size());
             ++c) {
            EXPECT_EQ(ref.stats.clusters[c].tiles,
                      got.stats.clusters[c].tiles);
            EXPECT_EQ(ref.stats.clusters[c].cycles,
                      got.stats.clusters[c].cycles);
        }
        // Bitwise: the stream must do the serial frame's arithmetic.
        const std::vector<Color4f> &a = ref.image.pixels();
        const std::vector<Color4f> &b = got.image.pixels();
        EXPECT_TRUE(a.size() == b.size() &&
                    std::memcmp(a.data(), b.data(),
                                a.size() * sizeof(Color4f)) == 0);
    }
    return ref;
}

} // namespace

TEST(PipelineTest, RendersNonTrivialImage)
{
    GpuSimulator sim(configFor(DesignScenario::Baseline));
    Scene scene = groundScene();
    FrameOutput out = sim.renderFrame(scene, standingCamera(160, 120),
                                      160, 120);
    EXPECT_EQ(out.image.width(), 160);
    EXPECT_EQ(out.image.height(), 120);
    EXPECT_GT(out.stats.pixels_shaded, 1000u);
    EXPECT_GT(out.stats.total_cycles, 0u);

    // The ground must produce varied colors, not a constant clear color.
    double min_l = 1.0, max_l = 0.0;
    for (const Color4f &p : out.image.pixels()) {
        min_l = std::min<double>(min_l, p.luma());
        max_l = std::max<double>(max_l, p.luma());
    }
    EXPECT_GT(max_l - min_l, 0.2);
}

TEST(PipelineTest, DeterministicAcrossRuns)
{
    GpuConfig cfg = configFor(DesignScenario::Patu);
    Scene scene = groundScene();
    Camera cam = standingCamera(160, 120);
    GpuSimulator sim_a(cfg), sim_b(cfg);
    FrameOutput a = sim_a.renderFrame(scene, cam, 160, 120);
    FrameOutput b = sim_b.renderFrame(scene, cam, 160, 120);
    EXPECT_EQ(a.stats.total_cycles, b.stats.total_cycles);
    EXPECT_EQ(a.stats.texels, b.stats.texels);
    for (std::size_t i = 0; i < a.image.pixels().size(); i += 97) {
        EXPECT_FLOAT_EQ(a.image.pixels()[i].r, b.image.pixels()[i].r);
    }
}

TEST(PipelineTest, GroundPlaneGeneratesAnisotropy)
{
    GpuSimulator sim(configFor(DesignScenario::Baseline));
    Scene scene = groundScene();
    FrameOutput out = sim.renderFrame(scene, standingCamera(160, 120),
                                      160, 120);
    // A receding plane must produce anisotropic pixels.
    EXPECT_GT(out.stats.af_candidate_pixels, out.stats.pixels_shaded / 4);
    // ... and more than 1 trilinear sample per pixel on average.
    EXPECT_GT(out.stats.trilinear_samples, out.stats.pixels_shaded);
}

TEST(PipelineTest, DisablingAfReducesCyclesAndTexels)
{
    Scene scene = groundScene();
    Camera cam = standingCamera(160, 120);
    GpuSimulator base(configFor(DesignScenario::Baseline));
    GpuSimulator noaf(configFor(DesignScenario::NoAF));
    FrameOutput b = base.renderFrame(scene, cam, 160, 120);
    FrameOutput n = noaf.renderFrame(scene, cam, 160, 120);
    EXPECT_LT(n.stats.texels, b.stats.texels);
    EXPECT_LT(n.stats.total_cycles, b.stats.total_cycles);
    EXPECT_LT(n.stats.texture_filter_cycles,
              b.stats.texture_filter_cycles);
}

TEST(PipelineTest, PatuBetweenBaselineAndNoAf)
{
    Scene scene = groundScene();
    Camera cam = standingCamera(160, 120);
    GpuSimulator base(configFor(DesignScenario::Baseline));
    GpuSimulator patu(configFor(DesignScenario::Patu, 0.4f));
    GpuSimulator noaf(configFor(DesignScenario::NoAF));
    Cycle cb = base.renderFrame(scene, cam, 160, 120).stats.total_cycles;
    Cycle cp = patu.renderFrame(scene, cam, 160, 120).stats.total_cycles;
    Cycle cn = noaf.renderFrame(scene, cam, 160, 120).stats.total_cycles;
    EXPECT_LE(cp, cb);
    EXPECT_GE(cp, cn);
}

TEST(PipelineTest, DepthTestResolvesOcclusion)
{
    // A red plane in front of a green plane: the image must show red.
    Scene scene;
    std::vector<RGBA8> red(64 * 64, RGBA8{255, 0, 0, 255});
    std::vector<RGBA8> green(64 * 64, RGBA8{0, 255, 0, 255});
    int red_tex = scene.addTexture(
        std::make_unique<TextureMap>(64, 64, std::move(red)));
    int green_tex = scene.addTexture(
        std::make_unique<TextureMap>(64, 64, std::move(green)));

    // Far green wall drawn first... then near red wall.
    DrawCall far_wall;
    far_wall.mesh = makeGrid({-20, -10, -30}, {40, 0, 0}, {0, 30, 0},
                             2, 2, 1, 1, green_tex);
    far_wall.backface_cull = false;
    scene.draws.push_back(std::move(far_wall));
    DrawCall near_wall;
    near_wall.mesh = makeGrid({-20, -10, -10}, {40, 0, 0}, {0, 30, 0},
                              2, 2, 1, 1, red_tex);
    near_wall.backface_cull = false;
    scene.draws.push_back(std::move(near_wall));

    GpuSimulator sim(configFor(DesignScenario::Baseline));
    FrameOutput out = sim.renderFrame(scene, standingCamera(64, 64),
                                      64, 64);
    const Color4f &center = out.image.at(32, 32);
    EXPECT_GT(center.r, center.g);

    // Draw order reversed: depth test must still give red.
    Scene reversed;
    std::vector<RGBA8> red2(64 * 64, RGBA8{255, 0, 0, 255});
    std::vector<RGBA8> green2(64 * 64, RGBA8{0, 255, 0, 255});
    int red_tex2 = reversed.addTexture(
        std::make_unique<TextureMap>(64, 64, std::move(red2)));
    int green_tex2 = reversed.addTexture(
        std::make_unique<TextureMap>(64, 64, std::move(green2)));
    DrawCall near2;
    near2.mesh = makeGrid({-20, -10, -10}, {40, 0, 0}, {0, 30, 0}, 2, 2,
                          1, 1, red_tex2);
    near2.backface_cull = false;
    reversed.draws.push_back(std::move(near2));
    DrawCall far2;
    far2.mesh = makeGrid({-20, -10, -30}, {40, 0, 0}, {0, 30, 0}, 2, 2,
                         1, 1, green_tex2);
    far2.backface_cull = false;
    reversed.draws.push_back(std::move(far2));

    GpuSimulator sim2(configFor(DesignScenario::Baseline));
    FrameOutput out2 = sim2.renderFrame(reversed, standingCamera(64, 64),
                                        64, 64);
    const Color4f &center2 = out2.image.at(32, 32);
    EXPECT_GT(center2.r, center2.g);
}

TEST(PipelineTest, TrafficSplitsAcrossClasses)
{
    GpuSimulator sim(configFor(DesignScenario::Baseline));
    Scene scene = groundScene();
    FrameOutput out = sim.renderFrame(scene, standingCamera(160, 120),
                                      160, 120);
    EXPECT_GT(out.stats.traffic_texture, 0u);
    EXPECT_GT(out.stats.traffic_colordepth, 0u);
    EXPECT_GT(out.stats.traffic_geometry, 0u);
    EXPECT_EQ(out.stats.totalTraffic(),
              out.stats.traffic_texture + out.stats.traffic_colordepth +
                  out.stats.traffic_geometry);
}

TEST(PipelineTest, FpsComputedFromCycles)
{
    FrameStats s;
    s.total_cycles = 20'000'000; // 20 ms at 1 GHz -> 50 fps.
    EXPECT_NEAR(s.fps(1.0), 50.0, 1e-6);
}

TEST(PipelineTest, EmptySceneStillCompletes)
{
    GpuSimulator sim(configFor(DesignScenario::Baseline));
    Scene scene;
    scene.clear_color = {0.3f, 0.1f, 0.2f, 1.0f};
    FrameOutput out = sim.renderFrame(scene, standingCamera(64, 64),
                                      64, 64);
    EXPECT_EQ(out.stats.pixels_shaded, 0u);
    EXPECT_FLOAT_EQ(out.image.at(10, 10).r, 0.3f);
}

TEST(PipelineTest, TilePassMatchesSerialWithEveryFetchExposed)
{
    // With no overlap credit even an all-L1-hit quad stalls (by the L1
    // hit latency). The tile pass resolves those quads during its L1
    // replay, not in the commit, so this pins that shortcut to the
    // serial timing; at the default credit their stall is always zero.
    GpuConfig cfg = configFor(DesignScenario::Patu);
    cfg.mem_overlap_credit = 0;
    Scene scene = groundScene();
    Camera cam = standingCamera(160, 120);
    GpuSimulator serial(cfg);
    ThreadPool::setDefaultThreads(1);
    const FrameOutput a = serial.renderFrame(scene, cam, 160, 120);
    GpuSimulator tiled(cfg);
    ThreadPool::setDefaultThreads(3);
    const FrameOutput b = tiled.renderFrame(scene, cam, 160, 120);
    ThreadPool::setDefaultThreads(0);

    EXPECT_GT(a.stats.texture_mem_stall, a.stats.quads);
    EXPECT_EQ(a.stats.total_cycles, b.stats.total_cycles);
    EXPECT_EQ(a.stats.texture_mem_stall, b.stats.texture_mem_stall);
    EXPECT_EQ(a.stats.texture_filter_cycles, b.stats.texture_filter_cycles);
    ASSERT_EQ(a.stats.clusters.size(), b.stats.clusters.size());
    for (std::size_t c = 0; c < a.stats.clusters.size(); ++c) {
        EXPECT_EQ(a.stats.clusters[c].cycles, b.stats.clusters[c].cycles);
        EXPECT_EQ(a.stats.clusters[c].mem_stall,
                  b.stats.clusters[c].mem_stall);
    }
}

TEST(PipelineTest, DrawWithOneBusyTile)
{
    // An 8x8 rectangle inside one 16x16 tile: the draw's stream has a
    // single tile, so one worker logs, replays and commits it whatever
    // the worker count.
    Scene scene = checkerScene();
    scene.draws.push_back(screenRect(64, 64, 36, 20, 44, 28, 10));
    const FrameOutput out = expectPoolMatchesOneThread(scene, 64, 64);
    EXPECT_EQ(tilesOf(out.stats), 1u);
    EXPECT_GT(out.stats.pixels_shaded, 0u);
    EXPECT_LE(out.stats.pixels_shaded, 16u * 16u);
}

TEST(PipelineTest, EmptyAndBusyDrawsInterleave)
{
    // Draws without busy tiles (no triangles; entirely off screen)
    // between busy ones: the empty draws start no stream, and the busy
    // draws still see each other's depth and colour.
    Scene scene = checkerScene();
    scene.draws.emplace_back();
    scene.draws.push_back(screenRect(64, 48, 0, 0, 40, 30, 20));
    scene.draws.push_back(screenRect(64, 48, 100, 0, 140, 30, 20));
    scene.draws.push_back(screenRect(64, 48, 24, 16, 64, 48, 10));
    scene.draws.emplace_back();
    const FrameOutput out = expectPoolMatchesOneThread(scene, 64, 48);
    // Tiles are 16x16: 3x2 for the first rectangle, 3x3 for the second.
    EXPECT_EQ(tilesOf(out.stats), 15u);
    EXPECT_EQ(out.stats.triangles_setup, 4u);
}

#ifndef PARGPU_TRACING_DISABLED

TEST(PipelineTest, LoneFrameSharesItsTileStream)
{
    // A frame rendered on the test thread owns its tile streams, and the
    // idle pool threads join them: some draw has more than one
    // participant, so a TSan run of this binary always sees helpers
    // logging, replaying and committing beside the owner. A helper
    // joins only once it wakes, so a draw may end before one arrives;
    // a few frames make that vanishingly unlikely.
    const GpuConfig cfg = configFor(DesignScenario::Patu);
    const Scene scene = groundScene();
    const Camera cam = standingCamera(320, 240);
    ThreadPool::setDefaultThreads(1);
    const FrameOutput ref = GpuSimulator(cfg).renderFrame(scene, cam,
                                                          320, 240);
    ThreadPool::setDefaultThreads(4);
    test::TileSpans n;
    for (int attempt = 0; attempt < 8 && n.spans <= n.draws; ++attempt) {
        Tracing::enable();
        const FrameOutput got =
            GpuSimulator(cfg).renderFrame(scene, cam, 320, 240);
        Tracing::disable();
        n = test::countTileSpans();
        Tracing::clear();
        EXPECT_EQ(got.stats.total_cycles, ref.stats.total_cycles);
        EXPECT_EQ(got.stats.llc_misses, ref.stats.llc_misses);
        EXPECT_EQ(std::memcmp(got.image.pixels().data(),
                              ref.image.pixels().data(),
                              ref.image.pixels().size() * sizeof(Color4f)),
                  0);
    }
    ThreadPool::setDefaultThreads(0);
    EXPECT_GT(n.draws, 0u);
    EXPECT_GT(n.spans, n.draws);
}

#endif // PARGPU_TRACING_DISABLED

TEST(PipelineDeathTest, RejectsBadViewport)
{
    GpuSimulator sim(configFor(DesignScenario::Baseline));
    Scene scene;
    EXPECT_EXIT(sim.renderFrame(scene, standingCamera(0, 0), 0, 64),
                testing::ExitedWithCode(1), "viewport");
}
