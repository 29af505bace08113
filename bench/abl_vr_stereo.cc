/**
 * @file
 * Extension experiment: multi-view VR rendering. The paper motivates
 * PATU partly with VR workloads and lists multi-view VR among the
 * simulator features (Section VI); here each frame renders twice from
 * IPD-offset eyes. The doubled fragment/texture load makes AF's cost —
 * and PATU's savings — proportionally larger against the fixed front end.
 */

#include "bench_util.hh"
#include "pargpu/threading.hh"
#include "pargpu/sim.hh"

using namespace pargpu;
using namespace pargpu::bench;

int
main()
{
    applyEnvironment();
    banner("Extension", "stereo (multi-view VR) rendering");

    GameTrace trace = buildGameTrace(GameId::Ut3, scaleDim(1280),
                                     scaleDim(1024), numFrames());

    std::printf("%-10s %14s %14s %10s\n", "design", "mono cycles",
                "stereo cycles", "stereo/mono");

    // One task per design scenario, each with its own simulator; totals
    // land in per-scenario slots and print in the original order.
    const DesignScenario designs[] = {DesignScenario::Baseline,
                                      DesignScenario::Patu,
                                      DesignScenario::NoAF};
    double monos[3] = {}, stereos[3] = {};
    ThreadPool::run(3, 1, [&](std::size_t i) {
        RunConfig cfg;
        cfg.scenario = designs[i];
        cfg.threshold = 0.4f;
        GpuSimulator sim(makeGpuConfig(cfg));

        for (const Camera &cam : trace.cameras) {
            FrameOutput m = sim.renderFrame(trace.scene, cam, trace.width,
                                            trace.height);
            monos[i] += static_cast<double>(m.stats.total_cycles);
            StereoFrame sf = renderStereo(sim, trace.scene, cam,
                                          trace.width, trace.height);
            stereos[i] += static_cast<double>(sf.totalCycles());
        }
    });

    const double base_stereo = stereos[0];
    for (std::size_t i = 0; i < 3; ++i) {
        std::printf("%-10s %14.0f %14.0f %9.2fx", scenarioName(designs[i]),
                    monos[i] / trace.cameras.size(),
                    stereos[i] / trace.cameras.size(),
                    stereos[i] / monos[i]);
        if (i != 0)
            std::printf("   (stereo speedup vs baseline: %.3fx)",
                        base_stereo / stereos[i]);
        std::printf("\n");
    }
    return 0;
}
