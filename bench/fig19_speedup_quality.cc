/**
 * @file
 * Fig. 19 reproduction: overall 3D-rendering speedup (bars) and MSSIM
 * (lines) under the four design scenarios at threshold 0.4. Paper: PATU
 * achieves 17 % average speedup (up to 24 %) at 93 % average MSSIM (up
 * to 98 %); AF-SSIM(N)+(Txds) is slightly faster but loses ~16 % MSSIM;
 * higher resolutions speed up more.
 */

#include "bench_util.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    applyEnvironment();
    Session session;
    banner("Figure 19", "overall speedup and MSSIM per design scenario");

    const DesignScenario scenarios[] = {
        DesignScenario::AfSsimN,
        DesignScenario::AfSsimNTxds,
        DesignScenario::Patu,
    };
    const char *names[] = {"AF-SSIM(N)", "N+Txds", "PATU"};

    std::printf("%-16s", "game");
    for (const char *n : names)
        std::printf(" | %9s spd  MSSIM", n);
    std::printf("\n");

    std::vector<double> speedups[3], mssims[3];
    for (const Workload &w : paperWorkloads()) {
        // Baseline plus the three scenarios, swept in parallel.
        std::vector<RunConfig> configs(4);
        configs[0].scenario = DesignScenario::Baseline;
        for (int s = 0; s < 3; ++s) {
            configs[s + 1].scenario = scenarios[s];
            configs[s + 1].threshold = 0.4f;
        }
        std::vector<RunResult> runs = session.sweep(w.trace, configs);
        const RunResult &base = runs[0];
        maybeWriteMetrics("fig19", w, configs[0], base);

        std::printf("%-16s", w.label.c_str());
        for (int s = 0; s < 3; ++s) {
            const RunResult &r = runs[s + 1];
            double speedup = base.avg_cycles / r.avg_cycles;
            double q = r.mssimAgainst(base.images);
            maybeWriteMetrics("fig19", w, configs[s + 1], r, q);
            speedups[s].push_back(speedup);
            mssims[s].push_back(q);
            std::printf(" | %9.3fx %7.3f", speedup, q);
        }
        std::printf("\n");
    }

    std::printf("%-16s", "average");
    for (int s = 0; s < 3; ++s)
        std::printf(" | %9.3fx %7.3f", geomean(speedups[s]),
                    mean(mssims[s]));
    std::printf("\n");

    std::printf("\npaper: PATU 1.17x avg speedup (up to 1.24x) at 93%% "
                "avg MSSIM; N+Txds slightly faster but ~16%% quality "
                "loss; AF-SSIM(N) ~1.10x.\n");
    return 0;
}
