/**
 * @file
 * Fig. 20 reproduction: normalized total GPU energy (DRAM included)
 * under the design scenarios at threshold 0.4. Paper: PATU saves 11 %
 * average (up to 16 %), slightly more energy than AF-SSIM(N)+(Txds)
 * (~1 %) due to the finer-LOD fetches, with ~7 % higher runtime power
 * offset by the shorter frames.
 */

#include "bench_util.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    applyEnvironment();
    Session session;
    banner("Figure 20", "normalized GPU energy (incl. DRAM)");

    const DesignScenario scenarios[] = {
        DesignScenario::AfSsimN,
        DesignScenario::AfSsimNTxds,
        DesignScenario::Patu,
    };

    std::printf("%-16s %12s %18s %10s %12s\n", "game", "AF-SSIM(N)",
                "AF-SSIM(N)+(Txds)", "PATU", "PATU power");

    std::vector<double> savings[3];
    std::vector<double> power_ratio;
    for (const Workload &w : paperWorkloads()) {
        RunConfig base_cfg;
        base_cfg.scenario = DesignScenario::Baseline;
        base_cfg.keep_images = false;
        RunResult base = session.run(w.trace, base_cfg);
        maybeWriteMetrics("fig20", w, base_cfg, base);

        double norm[3], patu_power = 0.0;
        for (int s = 0; s < 3; ++s) {
            RunConfig cfg = base_cfg;
            cfg.scenario = scenarios[s];
            cfg.threshold = 0.4f;
            RunResult r = session.run(w.trace, cfg);
            maybeWriteMetrics("fig20", w, cfg, r);
            norm[s] = r.total_energy_nj / base.total_energy_nj;
            savings[s].push_back(1.0 - norm[s]);
            if (scenarios[s] == DesignScenario::Patu)
                patu_power = r.avg_power_w / base.avg_power_w;
        }
        power_ratio.push_back(patu_power);
        std::printf("%-16s %12.3f %18.3f %10.3f %11.2fx\n",
                    w.label.c_str(), norm[0], norm[1], norm[2],
                    patu_power);
    }

    std::printf("%-16s %11.1f%% %17.1f%% %9.1f%% %11.2fx  "
                "(energy saving / power)\n",
                "average", 100 * mean(savings[0]),
                100 * mean(savings[1]), 100 * mean(savings[2]),
                mean(power_ratio));
    std::printf("\npaper: PATU saves 11%% energy avg (up to 16%%) with "
                "~1.07x runtime power; ~1%% more energy than N+Txds.\n");
    return 0;
}
