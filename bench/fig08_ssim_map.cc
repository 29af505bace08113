/**
 * @file
 * Fig. 8 reproduction: a selected HL2 frame rendered with AF on and off,
 * plus their SSIM index map (lighter = more similar). Writes the three
 * images as PPMs and reports the key observation: a large fraction of
 * pixels remain highly similar without AF.
 */

#include "bench_util.hh"
#include "pargpu/quality.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    applyEnvironment();
    Session session;
    banner("Figure 8", "SSIM index map of AF-on vs AF-off (HL2)");

    // The paper's frame is HL2 at 1600x1200.
    int w = scaleDim(1600), h = scaleDim(1200);
    GameTrace trace = buildGameTrace(GameId::HL2, w, h, 1);

    RunConfig on_cfg;
    on_cfg.scenario = DesignScenario::Baseline;
    RunResult on = session.run(trace, on_cfg);

    RunConfig off_cfg;
    off_cfg.scenario = DesignScenario::NoAF;
    RunResult off = session.run(trace, off_cfg);

    std::vector<float> map = ssimMap(off.images[0], on.images[0]);
    double m = mssimOfMap(map);

    // Fraction of pixels that stay perceptually close without AF.
    std::size_t high = 0;
    for (float v : map)
        high += v >= 0.93f;
    double frac = static_cast<double>(high) / map.size();

    on.images[0].writePPM("fig08_af_on.ppm");
    off.images[0].writePPM("fig08_af_off.ppm");
    ssimMapImage(map, w, h).writePPM("fig08_ssim_map.ppm");

    std::printf("frame MSSIM (AF-off vs AF-on) : %.4f\n", m);
    std::printf("pixels with SSIM >= 0.93      : %.1f%%\n", 100 * frac);
    std::printf("wrote fig08_af_on.ppm, fig08_af_off.ppm, "
                "fig08_ssim_map.ppm\n");
    std::printf("\npaper: more than half of the pixels keep high "
                "perceived quality without AF.\n");
    return 0;
}
