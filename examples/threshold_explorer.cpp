/**
 * @file
 * Threshold explorer: sweep PATU's unified AF-SSIM threshold for one game
 * and print the performance-quality trade-off curve (the per-game view of
 * the paper's Fig. 17), including the best point by speedup x MSSIM.
 *
 * Usage: threshold_explorer [game] [width height]
 *   game in {hl2, doom3, grid, nfs, stal, ut3, wolf, rbench}
 * An unknown game or a malformed or out-of-range number exits 2.
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "pargpu/session.hh"

using namespace pargpu;

namespace
{

/** @p token parsed whole as an int; anything else exits 2. */
int
wholeNumber(const char *token, const char *what)
{
    int v = 0;
    const char *end = token + std::strlen(token);
    const std::from_chars_result r = std::from_chars(token, end, v);
    if (r.ec == std::errc() && r.ptr == end)
        return v;
    std::fprintf(stderr, "invalid value '%s' for %s\n", token, what);
    std::exit(2);
}

/** Exit 2 with @p st's message unless it is ok. */
void
orExit(const Status &st)
{
    if (st.ok())
        return;
    std::fprintf(stderr, "%s\n", st.message.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    GameId game = GameId::HL2;
    if (argc >= 2 && !parseGameName(argv[1], game)) {
        std::fprintf(stderr, "unknown game '%s'\n", argv[1]);
        return 2;
    }
    int width = 640, height = 480;
    if (argc >= 4) {
        width = wholeNumber(argv[2], "width");
        height = wholeNumber(argv[3], "height");
    }
    RunConfig base_cfg;
    base_cfg.scenario = DesignScenario::Baseline;
    orExit(validateRunConfig(base_cfg));

    Session session;
    orExit(session.load("game", game, width, height, 2));
    const GameTrace &trace = *session.trace("game");
    std::printf("threshold sweep for %s\n\n", trace.name.c_str());

    RunResult base = session.run(trace, base_cfg);

    std::printf("%9s %9s %9s %12s\n",
                "threshold", "speedup", "MSSIM", "speed*MSSIM");

    double best_metric = 0.0;
    float best_threshold = 1.0f;
    for (int i = 0; i <= 10; ++i) {
        float threshold = 0.1f * static_cast<float>(i);
        RunConfig cfg;
        cfg.scenario = DesignScenario::Patu;
        cfg.threshold = threshold;
        orExit(validateRunConfig(cfg));
        RunResult run = session.run(trace, cfg);
        double speedup = base.avg_cycles / run.avg_cycles;
        double quality = run.mssimAgainst(base.images);
        double metric = speedup * quality;
        if (metric > best_metric) {
            best_metric = metric;
            best_threshold = threshold;
        }
        std::printf("%9.1f %9.3f %9.4f %12.4f\n",
                    threshold, speedup, quality, metric);
    }
    std::printf("\nbest point (BP): threshold = %.1f "
                "(speedup x MSSIM = %.4f)\n",
                best_threshold, best_metric);
    return 0;
}
