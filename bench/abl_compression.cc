/**
 * @file
 * Extension experiment: BC1 texture compression x PATU. The paper's
 * Section VIII positions PATU as orthogonal to texture compression; this
 * bench demonstrates it: compression shrinks texture traffic for every
 * design, PATU removes filtering work on top, and the two compose.
 */

#include "bench_util.hh"
#include "pargpu/threading.hh"
#include "pargpu/scenes.hh"

using namespace pargpu;
using namespace pargpu::bench;

namespace
{

Scene
scene(StorageFormat format)
{
    Scene s;
    s.addTexture(std::make_unique<TextureMap>(
        512, 512, generateTexture(TextureKind::Grass, 512, 11),
        WrapMode::Repeat, TexelLayout::Tiled4x4, format));
    DrawCall ground;
    ground.mesh = makeGrid({-60, 0, 10}, {120, 0, 0}, {0, 0, -140}, 6, 8,
                           8.0f, 9.0f, 0);
    s.draws.push_back(std::move(ground));
    DrawCall wall;
    wall.mesh = makeGrid({-60, 0, -130}, {120, 0, 0}, {0, 60, 0}, 6, 3,
                         8.0f, 4.0f, 0);
    wall.backface_cull = false;
    s.draws.push_back(std::move(wall));
    return s;
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
    banner("Extension", "BC1 texture compression x PATU orthogonality");

    const int w = scaleDim(1280), h = scaleDim(1024);
    std::printf("%-8s %-10s %12s %14s %12s\n", "format", "design",
                "cycles", "tex traffic B", "MSSIM");

    // Scenes are immutable during rendering, so the format x design grid
    // shares them read-only across workers, one simulator per cell.
    const Scene scenes[] = {scene(StorageFormat::RGBA8),
                            scene(StorageFormat::BC1)};
    const DesignScenario designs[] = {DesignScenario::Baseline,
                                      DesignScenario::Patu};

    // Quality reference: uncompressed baseline frame.
    RunConfig base_cfg;
    base_cfg.scenario = DesignScenario::Baseline;
    GpuSimulator ref_sim(makeGpuConfig(base_cfg));
    FrameOutput reference =
        ref_sim.renderFrame(scenes[0], camera(w, h), w, h);

    FrameOutput cells[4];
    ThreadPool::run(4, 1, [&](std::size_t i) {
        RunConfig cfg;
        cfg.scenario = designs[i % 2];
        GpuSimulator sim(makeGpuConfig(cfg));
        cells[i] = sim.renderFrame(scenes[i / 2], camera(w, h), w, h);
    });

    const double base_cycles =
        static_cast<double>(cells[0].stats.total_cycles);
    for (std::size_t i = 0; i < 4; ++i) {
        const FrameOutput &out = cells[i];
        std::printf("%-8s %-10s %12llu %14llu %12.4f   (%.3fx)\n",
                    i / 2 == 0 ? "RGBA8" : "BC1",
                    scenarioName(designs[i % 2]),
                    static_cast<unsigned long long>(
                        out.stats.total_cycles),
                    static_cast<unsigned long long>(
                        out.stats.traffic_texture),
                    mssim(reference.image, out.image),
                    base_cycles /
                        static_cast<double>(out.stats.total_cycles));
    }
    std::printf("\ncompression cuts traffic for both designs; PATU's "
                "speedup composes on top (orthogonal, Section VIII).\n");
    return 0;
}
