/**
 * @file
 * Section V-C(1) reproduction: prediction divergence within quads. The
 * paper measures that only ~1 % of quads (up to 1.6 %) contain pixels
 * with different PATU decisions, justifying the simple SIMD design.
 */

#include "bench_util.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    applyEnvironment();
    Session session;
    banner("Section V-C(1)", "PATU decision divergence within quads");

    std::printf("%-16s %14s %14s %12s\n", "game", "AF quads",
                "divergent", "fraction");

    std::vector<double> fracs;
    for (const Workload &w : paperWorkloads()) {
        RunConfig cfg;
        cfg.scenario = DesignScenario::Patu;
        cfg.threshold = 0.4f;
        cfg.keep_images = false;
        RunResult r = session.run(w.trace, cfg);

        double divergent =
            sumOver(r.frames, &FrameStats::divergent_quads);
        double af_quads = sumOver(r.frames, &FrameStats::af_quads);
        double frac = af_quads > 0 ? divergent / af_quads : 0.0;
        fracs.push_back(frac);
        std::printf("%-16s %14.0f %14.0f %11.2f%%\n", w.label.c_str(),
                    af_quads, divergent, 100 * frac);
    }

    std::printf("%-16s %14s %14s %11.2f%%\n", "average", "", "",
                100 * mean(fracs));
    std::printf("\npaper: ~1%% average (up to 1.6%%) of quads diverge; "
                "no special divergence hardware is warranted.\n");
    return 0;
}
