/**
 * @file
 * Ablation: texel memory layout. The baseline stores textures in 4x4
 * texel tiles so a bilinear footprint usually coalesces into one or two
 * cache lines; a linear (row-major) layout fragments footprints across
 * rows and degrades texture-cache behaviour. PATU's savings are layout-
 * independent (it removes whole samples), so its relative benefit holds
 * under both.
 */

#include "bench_util.hh"
#include "pargpu/threading.hh"
#include "pargpu/scenes.hh"

using namespace pargpu;
using namespace pargpu::bench;

namespace
{

// A single-texture ground scene so the layout is the only variable.
Scene
layoutScene(TexelLayout layout)
{
    Scene scene;
    scene.addTexture(std::make_unique<TextureMap>(
        512, 512, generateTexture(TextureKind::Noise, 512, 7),
        WrapMode::Repeat, layout));
    DrawCall d;
    d.mesh = makeGrid({-60, 0, 10}, {120, 0, 0}, {0, 0, -120}, 6, 8,
                      10.0f, 10.0f, 0);
    scene.draws.push_back(std::move(d));
    return scene;
}

Camera
camera(int w, int h)
{
    Camera cam;
    cam.eye = {0, 1.8f, 0};
    cam.view = Mat4::lookAt(cam.eye, {0, 1.3f, -10}, {0, 1, 0});
    cam.proj = Mat4::perspective(1.1f, static_cast<float>(w) / h, 0.3f,
                                 400.0f);
    return cam;
}

} // namespace

int
main()
{
    applyEnvironment();
    banner("Ablation", "texel layout: 4x4 tiled vs linear");

    const int w = scaleDim(1280), h = scaleDim(1024);
    std::printf("%-8s %-10s %12s %10s %10s %12s\n", "layout", "design",
                "cycles", "L1 hit%", "LLC hit%", "DRAM reads");

    // The layout x design grid renders in parallel: scenes are shared
    // read-only, each cell owns its simulator and writes its own slot.
    const Scene scenes[] = {layoutScene(TexelLayout::Tiled4x4),
                            layoutScene(TexelLayout::Linear)};
    const DesignScenario designs[] = {DesignScenario::Baseline,
                                      DesignScenario::Patu};

    FrameOutput cells[4];
    ThreadPool::run(4, 1, [&](std::size_t i) {
        RunConfig cfg;
        cfg.scenario = designs[i % 2];
        GpuSimulator sim(makeGpuConfig(cfg));
        cells[i] = sim.renderFrame(scenes[i / 2], camera(w, h), w, h);
    });

    for (std::size_t i = 0; i < 4; ++i) {
        const FrameStats &f = cells[i].stats;
        std::printf("%-8s %-10s %12llu %9.1f%% %9.1f%% %12llu\n",
                    i / 2 == 0 ? "tiled" : "linear",
                    scenarioName(designs[i % 2]),
                    static_cast<unsigned long long>(f.total_cycles),
                    100.0 * f.l1_hits /
                        std::max<std::uint64_t>(
                            1, f.l1_hits + f.l1_misses),
                    100.0 * f.llc_hits /
                        std::max<std::uint64_t>(
                            1, f.llc_hits + f.llc_misses),
                    static_cast<unsigned long long>(f.dram_reads));
    }
    return 0;
}
