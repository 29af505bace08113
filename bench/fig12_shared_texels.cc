/**
 * @file
 * Fig. 12 reproduction: percentage of AF input samples that share the
 * same set of texels with TF during 3D rendering. Paper: 62 % on
 * average — the headroom the distribution-based prediction exploits.
 */

#include "bench_util.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    applyEnvironment();
    Session session;
    banner("Figure 12", "AF input samples sharing texel sets with TF");

    std::printf("%-16s %16s\n", "game", "shared samples");

    std::vector<double> fracs;
    for (const Workload &w : paperWorkloads()) {
        RunConfig cfg;
        cfg.scenario = DesignScenario::Baseline;
        cfg.keep_images = false;
        RunResult r = session.run(w.trace, cfg);

        double shared = sumOver(r.frames, &FrameStats::shared_samples);
        double total = sumOver(r.frames, &FrameStats::af_input_samples);
        double frac = total > 0 ? shared / total : 0.0;
        fracs.push_back(frac);
        std::printf("%-16s %15.1f%%\n", w.label.c_str(), 100 * frac);
    }

    std::printf("%-16s %15.1f%%\n", "average", 100 * mean(fracs));
    std::printf("\npaper: an average 62%% of AF's input samples share "
                "the same texel set with TF.\n");
    return 0;
}
