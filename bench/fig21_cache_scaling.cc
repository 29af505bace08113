/**
 * @file
 * Fig. 21 reproduction: performance when LLC and texture-cache capacities
 * scale up, with and without PATU. Paper: capacity alone barely helps
 * (rendering is throughput-bound), while PATU adds 24-28 % on top of
 * every configuration — it is orthogonal to cache scaling.
 */

#include <iterator>

#include "bench_util.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    applyEnvironment();
    Session session;
    banner("Figure 21", "cache scaling with and without PATU");

    struct Config
    {
        const char *label;
        unsigned tc_scale;
        unsigned llc_scale;
    };
    const Config configs[] = {
        {"1x (baseline)", 1, 1},
        {"2xLLC", 1, 2},
        {"4xLLC", 1, 4},
        {"2xTC+4xLLC", 2, 4},
    };

    std::printf("%-14s %14s %14s\n", "config", "no PATU", "with PATU");

    // Per game, one parallel sweep covers the shared 1x baseline plus a
    // plain and a PATU condition for every cache configuration.
    const std::size_t nc = std::size(configs);
    std::vector<std::vector<double>> plain(nc), patu(nc);
    for (const Workload &w : paperWorkloads()) {
        std::vector<RunConfig> sweep;
        RunConfig base_cfg; // 1x, no PATU = normalization point.
        base_cfg.scenario = DesignScenario::Baseline;
        base_cfg.keep_images = false;
        sweep.push_back(base_cfg);
        for (const Config &c : configs) {
            RunConfig plain_cfg = base_cfg;
            plain_cfg.tc_scale = c.tc_scale;
            plain_cfg.llc_scale = c.llc_scale;
            sweep.push_back(plain_cfg);

            RunConfig patu_cfg = plain_cfg;
            patu_cfg.scenario = DesignScenario::Patu;
            patu_cfg.threshold = 0.4f;
            sweep.push_back(patu_cfg);
        }
        std::vector<RunResult> runs = session.sweep(w.trace, sweep);
        const RunResult &base = runs[0];
        maybeWriteMetrics("fig21", w, base_cfg, base);
        for (std::size_t i = 0; i < nc; ++i) {
            plain[i].push_back(base.avg_cycles / runs[1 + 2 * i].avg_cycles);
            patu[i].push_back(base.avg_cycles / runs[2 + 2 * i].avg_cycles);
        }
    }

    // Average across the Table II games.
    for (std::size_t i = 0; i < nc; ++i)
        std::printf("%-14s %13.3fx %13.3fx\n", configs[i].label,
                    geomean(plain[i]), geomean(patu[i]));

    std::printf("\npaper: capacity alone gives little; PATU delivers "
                "24.1/28.0/28.3%% on the scaled configs and scales with "
                "LLC size.\n");
    return 0;
}
