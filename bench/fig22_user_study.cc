/**
 * @file
 * Fig. 22 reproduction: simulated user-satisfaction scores over PATU
 * thresholds for the doom3 and HL2 replays (30-rater psychometric model,
 * see DESIGN.md). Paper: interior thresholds beat both the no-AF and
 * baseline endpoints; high-resolution replays favor lower thresholds
 * (performance), low-resolution ones higher thresholds (quality).
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
    banner("Figure 22", "user satisfaction over thresholds (simulated)");

    struct Case
    {
        GameId id;
        int w, h;
    };
    const Case cases[] = {
        {GameId::Doom3, 1280, 1024},
        {GameId::Doom3, 640, 480},
        {GameId::HL2, 1280, 1024},
        {GameId::HL2, 640, 480},
    };
    const float thresholds[] = {0.0f, 0.2f, 0.4f, 0.6f, 0.8f, 1.0f};

    // The replay needs enough frames for the vsync staircase to produce
    // mixed refresh counts (the paper connected 600 frames per video).
    const int frames = std::max(6, numFrames());

    for (const Case &c : cases) {
        GameTrace trace = buildGameTrace(c.id, scaleDim(c.w),
                                         scaleDim(c.h), frames);
        std::string label = std::string(gameAbbr(c.id)) + "-" +
            std::to_string(c.w) + "x" + std::to_string(c.h);

        RunConfig base_cfg;
        base_cfg.scenario = DesignScenario::Baseline;
        RunResult base = session.run(trace, base_cfg);

        // Normalize the absolute cycle scale to the paper's operating
        // point: our procedural scenes are structurally simpler than
        // commercial games, so the 16xAF baseline is pinned just above
        // the one-refresh GPU budget — the regime the paper's replays ran
        // in (33-58 fps), where per-threshold savings move individual
        // frames across refresh boundaries. All relative effects are
        // preserved.
        ReplayConfig rc;
        double budget = (1.0 - rc.cpu_fraction) *
            static_cast<double>(rc.refreshCycles());
        double scale = 1.06 * budget / base.avg_cycles;

        std::printf("\n%s\n", label.c_str());
        std::printf("  %9s %8s %8s %12s\n", "threshold", "fps", "MSSIM",
                    "satisfaction");

        double best_score = 0.0;
        float best_threshold = 0.0f;
        for (float t : thresholds) {
            RunConfig cfg;
            cfg.scenario = DesignScenario::Patu;
            cfg.threshold = t;
            RunResult r = session.run(trace, cfg);
            double q = r.mssimAgainst(base.images);

            std::vector<Cycle> cyc;
            for (const FrameStats &f : r.frames)
                cyc.push_back(static_cast<Cycle>(
                    static_cast<double>(f.total_cycles) * scale));
            ReplayResult replay = simulateReplay(cyc);

            ReplayCondition cond;
            cond.mssim = q;
            cond.avg_fps = replay.avg_fps;
            cond.lag_fraction = replay.lag_fraction;
            cond.width = c.w;
            cond.height = c.h;
            double score = satisfactionScore(cond);
            if (score > best_score) {
                best_score = score;
                best_threshold = t;
            }
            std::printf("  %9.1f %8.1f %8.4f %12.2f\n", t,
                        replay.avg_fps, q, score);
        }
        std::printf("  preferred threshold: %.1f (score %.2f)\n",
                    best_threshold, best_score);
    }

    std::printf("\npaper: PATU's interior thresholds score above both "
                "endpoints; doom3-1280x1024 users prefer 0.2, low-res "
                "replays prefer 0.8.\n");
    return 0;
}
