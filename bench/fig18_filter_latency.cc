/**
 * @file
 * Fig. 18 reproduction: normalized texture-filtering latency under the
 * four design scenarios (baseline, AF-SSIM(N), AF-SSIM(N)+(Txds), PATU)
 * at the default threshold 0.4. Paper: PATU and AF-SSIM(N)+(Txds) cut
 * filtering latency by 29 % on average (up to 42 %), beating AF-SSIM(N).
 */

#include "bench_util.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    applyEnvironment();
    Session session;
    banner("Figure 18", "normalized texture filtering latency");

    const DesignScenario scenarios[] = {
        DesignScenario::AfSsimN,
        DesignScenario::AfSsimNTxds,
        DesignScenario::Patu,
    };

    std::printf("%-16s %12s %18s %10s\n", "game", "AF-SSIM(N)",
                "AF-SSIM(N)+(Txds)", "PATU");

    std::vector<double> reductions[3];
    for (const Workload &w : paperWorkloads()) {
        RunConfig base_cfg;
        base_cfg.scenario = DesignScenario::Baseline;
        base_cfg.keep_images = false;
        RunResult base = session.run(w.trace, base_cfg);
        double base_lat =
            sumOver(base.frames, &FrameStats::texture_filter_cycles);

        double norm[3];
        for (int s = 0; s < 3; ++s) {
            RunConfig cfg = base_cfg;
            cfg.scenario = scenarios[s];
            cfg.threshold = 0.4f;
            RunResult r = session.run(w.trace, cfg);
            double lat =
                sumOver(r.frames, &FrameStats::texture_filter_cycles);
            norm[s] = lat / base_lat;
            reductions[s].push_back(1.0 - norm[s]);
        }
        std::printf("%-16s %12.3f %18.3f %10.3f\n", w.label.c_str(),
                    norm[0], norm[1], norm[2]);
    }

    std::printf("%-16s %11.1f%% %17.1f%% %9.1f%%  (latency reduction)\n",
                "average", 100 * mean(reductions[0]),
                100 * mean(reductions[1]), 100 * mean(reductions[2]));
    std::printf("\npaper: PATU reduces texture filtering latency by 29%% "
                "avg (up to 42%%); AF-SSIM(N) saves less.\n");
    return 0;
}
