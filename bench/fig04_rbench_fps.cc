/**
 * @file
 * Fig. 4 reproduction: R.Bench-style frame rates at 2K and 4K with AF on
 * and off, under the vsync replay model. The paper's observations: most
 * frames miss the 60 fps target with AF on, and disabling AF improves
 * frame rate substantially more at 4K than at 2K.
 */

#include "bench_util.hh"
#include "pargpu/replay.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    applyEnvironment();
    Session session;
    banner("Figure 4", "R.Bench fps on 2K/4K with AF on vs off");

    struct Res
    {
        const char *label;
        int w, h;
    };
    const Res resolutions[] = {
        {"2K (2560x1440)", 2560, 1440},
        {"4K (3840x2160)", 3840, 2160},
    };

    std::printf("%-18s %12s %12s %12s %10s\n", "resolution",
                "AF-on fps", "AF-off fps", "fps gain", "meets 60?");

    for (const Res &res : resolutions) {
        GameTrace trace = buildGameTrace(GameId::RBench, scaleDim(res.w),
                                         scaleDim(res.h), numFrames());

        RunConfig on_cfg;
        on_cfg.scenario = DesignScenario::Baseline;
        on_cfg.keep_images = false;
        RunResult on = session.run(trace, on_cfg);

        RunConfig off_cfg = on_cfg;
        off_cfg.scenario = DesignScenario::NoAF;
        RunResult off = session.run(trace, off_cfg);

        // At reduced bench resolution, scale cycle counts back up so the
        // vsync comparison reflects the paper-native pixel load.
        double scale = fullRes() ? 1.0 : 4.0;
        auto scaled = [scale](const RunResult &r) {
            std::vector<Cycle> c;
            for (const FrameStats &f : r.frames)
                c.push_back(static_cast<Cycle>(
                    static_cast<double>(f.total_cycles) * scale));
            return c;
        };
        ReplayResult ron = simulateReplay(scaled(on));
        ReplayResult roff = simulateReplay(scaled(off));

        std::printf("%-18s %12.1f %12.1f %11.0f%% %10s\n", res.label,
                    ron.avg_fps, roff.avg_fps,
                    100.0 * (roff.avg_fps / ron.avg_fps - 1.0),
                    ron.avg_fps >= 59.9 ? "yes" : "no");
    }

    std::printf("\npaper: AF-off improves fps by 21%% (2K) and 43%% "
                "(4K); most frames below 60 fps with AF on.\n");
    return 0;
}
