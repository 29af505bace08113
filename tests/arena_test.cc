/**
 * @file
 * BumpArena unit tests plus the steady-state guarantee the simulator's
 * arena-backed scratch depends on: after a warm-up frame, rendering
 * performs zero heap allocations for per-frame scratch (blockAllocs()
 * stops growing) and the arena.* stats are reproducible.
 */

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "common/arena.hh"
#include "scenes/meshes.hh"
#include "sim/pipeline.hh"
#include "texture/procedural.hh"

using namespace pargpu;

namespace
{

struct alignas(64) CacheLineObj
{
    std::uint8_t bytes[64];
};

Scene
groundScene()
{
    Scene scene;
    int tex = scene.addTexture(std::make_unique<TextureMap>(
        128, 128, generateTexture(TextureKind::Checker, 128, 3)));
    DrawCall d;
    d.mesh = makeGrid({-50, 0, 10}, {100, 0, 0}, {0, 0, -200}, 4, 8,
                      30.0f, 60.0f, tex);
    d.filter = FilterMode::Anisotropic;
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

} // namespace

TEST(ArenaTest, RespectsAlignment)
{
    BumpArena arena;
    // Interleave allocations of different alignments so the bump offset
    // is misaligned before each aligned request.
    for (int i = 0; i < 64; ++i) {
        std::span<std::uint8_t> b =
            arena.allocSpan<std::uint8_t>(static_cast<std::size_t>(i) % 7 +
                                          1);
        ASSERT_FALSE(b.empty());
        std::span<double> d = arena.allocSpan<double>(3);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) %
                      alignof(double),
                  0u);
        std::span<CacheLineObj> c = arena.allocSpan<CacheLineObj>(2);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % 64, 0u);
    }
}

TEST(ArenaTest, ValueInitializesAllocSpan)
{
    BumpArena arena(1024);
    // Dirty a block, reset, and re-allocate: allocSpan must hand back
    // zeroed ints even over recycled storage...
    std::span<int> first = arena.allocSpan<int>(100);
    for (int &v : first)
        v = -1;
    arena.reset();
    std::span<int> second = arena.allocSpan<int>(100);
    for (int v : second)
        ASSERT_EQ(v, 0);
    // ...while allocSpanUninit reuses the bytes as-is (same storage,
    // no construction) — the contract its hot-path callers rely on.
    arena.reset();
    std::span<int> third = arena.allocSpanUninit<int>(100);
    EXPECT_EQ(static_cast<void *>(third.data()),
              static_cast<void *>(second.data()));
}

TEST(ArenaTest, ResetRecyclesBlocks)
{
    BumpArena arena(4096);
    std::span<float> a = arena.allocSpan<float>(512);
    float *first_ptr = a.data();
    std::size_t blocks = arena.blockAllocs();
    std::size_t cap = arena.capacityBytes();

    for (int frame = 0; frame < 50; ++frame) {
        arena.reset();
        EXPECT_EQ(arena.usedBytes(), 0u);
        std::span<float> b = arena.allocSpan<float>(512);
        // Identical allocation sequence → identical placement: the
        // recycled block is bumped from the start again.
        EXPECT_EQ(b.data(), first_ptr);
        EXPECT_EQ(arena.blockAllocs(), blocks);
        EXPECT_EQ(arena.capacityBytes(), cap);
    }
}

TEST(ArenaTest, TracksUsedAndHighWater)
{
    BumpArena arena;
    EXPECT_EQ(arena.usedBytes(), 0u);
    EXPECT_EQ(arena.highWaterBytes(), 0u);
    EXPECT_EQ(arena.lifetimeBytes(), 0u);

    arena.allocSpan<std::uint8_t>(100);
    EXPECT_EQ(arena.usedBytes(), 100u);
    arena.allocSpan<std::uint8_t>(50);
    EXPECT_EQ(arena.usedBytes(), 150u);
    EXPECT_EQ(arena.highWaterBytes(), 150u);
    EXPECT_EQ(arena.lifetimeBytes(), 150u);

    // The high-water mark survives resets; usedBytes does not, and
    // lifetimeBytes keeps integrating.
    arena.reset();
    EXPECT_EQ(arena.usedBytes(), 0u);
    EXPECT_EQ(arena.highWaterBytes(), 150u);
    EXPECT_EQ(arena.lifetimeBytes(), 150u);

    arena.allocSpan<std::uint8_t>(60);
    EXPECT_EQ(arena.highWaterBytes(), 150u);
    arena.allocSpan<std::uint8_t>(200);
    EXPECT_EQ(arena.usedBytes(), 260u);
    EXPECT_EQ(arena.highWaterBytes(), 260u);
    EXPECT_EQ(arena.lifetimeBytes(), 410u);
}

TEST(ArenaTest, SteadyStateStopsAllocatingBlocks)
{
    // The zero-per-frame-allocation guard at the arena level: once a
    // "frame" worth of scratch has been carved, repeating the identical
    // sequence never touches the heap again.
    BumpArena arena(8 * 1024);
    auto frame = [&arena] {
        arena.reset();
        for (int q = 0; q < 32; ++q) {
            arena.allocSpanUninit<float>(257);
            arena.allocSpan<std::uint64_t>(63);
            arena.allocSpan<CacheLineObj>(5);
        }
    };
    frame(); // warm-up: blocks are allocated here
    const std::size_t warm_blocks = arena.blockAllocs();
    const std::size_t warm_cap = arena.capacityBytes();
    const std::size_t warm_used = arena.usedBytes();
    EXPECT_GT(warm_blocks, 0u);
    for (int f = 0; f < 100; ++f) {
        frame();
        ASSERT_EQ(arena.blockAllocs(), warm_blocks) << "frame " << f;
        ASSERT_EQ(arena.capacityBytes(), warm_cap) << "frame " << f;
        ASSERT_EQ(arena.usedBytes(), warm_used) << "frame " << f;
    }
}

TEST(ArenaTest, ZeroSizedSpansAreEmpty)
{
    BumpArena arena;
    EXPECT_TRUE(arena.allocSpan<int>(0).empty());
    EXPECT_TRUE(arena.allocSpanUninit<int>(0).empty());
    EXPECT_EQ(arena.usedBytes(), 0u);
    EXPECT_EQ(arena.blockAllocs(), 0u);
}

TEST(ArenaTest, OversizedAllocationGetsDedicatedBlock)
{
    BumpArena arena(1024);
    std::span<std::uint8_t> big = arena.allocSpan<std::uint8_t>(100000);
    ASSERT_EQ(big.size(), 100000u);
    EXPECT_GE(arena.capacityBytes(), 100000u);
    // The block is recycled like any other.
    arena.reset();
    std::size_t blocks = arena.blockAllocs();
    std::span<std::uint8_t> again = arena.allocSpan<std::uint8_t>(100000);
    EXPECT_EQ(again.data(), big.data());
    EXPECT_EQ(arena.blockAllocs(), blocks);
}

// The simulator-level steady-state guarantee: re-rendering the same
// frame reports identical arena.* numbers every time.
TEST(ArenaTest, SimulatorArenaStatsAreSteady)
{
    GpuConfig cfg;
    GpuSimulator sim(cfg);
    Scene scene = groundScene();
    Camera cam = standingCamera(96, 80);

    FrameStats warm = sim.renderFrame(scene, cam, 96, 80).stats;
    EXPECT_GT(warm.arena_frame_bytes, 0u);
    EXPECT_GT(warm.arena_high_water, 0u);
    for (int f = 0; f < 3; ++f) {
        FrameStats fs = sim.renderFrame(scene, cam, 96, 80).stats;
        // Same frame → same scratch demand; the high-water mark has
        // plateaued by construction (no frame exceeds the first).
        EXPECT_EQ(fs.arena_frame_bytes, warm.arena_frame_bytes);
        EXPECT_EQ(fs.arena_high_water, warm.arena_high_water);
    }
}
