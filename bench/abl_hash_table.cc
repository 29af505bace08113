/**
 * @file
 * Ablation: texel-address hash-table capacity. The baseline provisions 16
 * entries (one per possible AF sample, Section V-A/V-D) so the table can
 * never overflow. Smaller tables shrink the dominant area cost but drop
 * overflowing samples from the distribution, lowering Txds and therefore
 * stage-2 approval rates — a conservative failure mode (quality can only
 * go up, savings down).
 */

#include <iterator>

#include "bench_util.hh"
#include "pargpu/analysis.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    applyEnvironment();
    Session session;
    banner("Ablation", "PATU hash-table capacity (baseline: 16 entries)");

    GameTrace trace = buildGameTrace(GameId::HL2, scaleDim(1280),
                                     scaleDim(1024), numFrames());

    // Baseline plus one PATU condition per table capacity, in parallel.
    const int capacities[] = {2, 4, 8, 16};
    std::vector<RunConfig> configs;
    RunConfig base_cfg;
    base_cfg.scenario = DesignScenario::Baseline;
    configs.push_back(base_cfg);
    for (int entries : capacities) {
        RunConfig cfg;
        cfg.scenario = DesignScenario::Patu;
        cfg.threshold = 0.4f;
        cfg.table_entries = entries;
        configs.push_back(cfg);
    }
    std::vector<RunResult> runs = session.sweep(trace, configs);
    const RunResult &base = runs[0];

    std::printf("%8s %10s %10s %12s %14s\n", "entries", "speedup",
                "MSSIM", "stage-2 pix", "table bytes/TU");

    for (std::size_t i = 0; i < std::size(capacities); ++i) {
        const int entries = capacities[i];
        const RunResult &r = runs[i + 1];
        double st2 = sumOver(r.frames, &FrameStats::approx_stage2);
        double q = r.mssimAgainst(base.images);

        OverheadConfig oc;
        oc.table_entries = entries;
        OverheadReport rep = computeOverhead(oc);

        std::printf("%8d %9.3fx %10.4f %12.0f %14.0f\n", entries,
                    base.avg_cycles / r.avg_cycles, q, st2,
                    rep.table_bytes_per_tu);
    }

    std::printf("\nsmaller tables trade stage-2 coverage (and speedup) "
                "for area; quality never degrades.\n");
    return 0;
}
