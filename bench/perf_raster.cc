/**
 * @file
 * Raster hot-path perf bench: times a raster-bound scenario — NoAF
 * (trilinear-only filtering, so texel work is light) at high resolution,
 * where triangle setup, the 2x2 edge kernel, early-Z and the framebuffer
 * fills dominate — once per runnable SIMD dispatch tier, checks every
 * tier renders bit-identically, and writes BENCH_raster.json.
 *
 * Single-threaded on a fixed viewport so the numbers are comparable
 * across machines and PRs; wall-clock per tier is informational (machine
 * dependent), while the simulated metrics exported under
 * PARGPU_METRICS_DIR are gated against bench/baselines/ by
 * tools/pargpu_report.py like every other producer.
 *
 * Environment:
 *   PARGPU_FRAMES       frames in the timed trace (default: 4 here)
 *   PARGPU_METRICS_DIR  also export the active-tier run as a standard
 *                       metrics document (schema in docs/METRICS.md)
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "pargpu/simd.hh"
#include "pargpu/threading.hh"

using namespace pargpu;
using namespace pargpu::bench;

namespace
{

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

bool
runsIdentical(const RunResult &a, const RunResult &b)
{
    bool same = a.frames.size() == b.frames.size() &&
        a.avg_cycles == b.avg_cycles &&
        a.total_energy_nj == b.total_energy_nj &&
        a.avg_power_w == b.avg_power_w;
    for (std::size_t i = 0; same && i < a.frames.size(); ++i) {
        const FrameStats &fa = a.frames[i];
        const FrameStats &fb = b.frames[i];
        same = fa.total_cycles == fb.total_cycles &&
            fa.fragment_cycles == fb.fragment_cycles &&
            fa.earlyz_tested == fb.earlyz_tested &&
            fa.earlyz_killed == fb.earlyz_killed &&
            fa.raster_simd_quads == fb.raster_simd_quads &&
            fa.fb_simd_fills == fb.fb_simd_fills &&
            fa.arena_frame_bytes == fb.arena_frame_bytes &&
            fa.arena_high_water == fb.arena_high_water &&
            fa.texels == fb.texels &&
            fa.traffic_colordepth == fb.traffic_colordepth;
    }
    return same;
}

} // namespace

int
main()
{
    applyEnvironment();
    Session session;
    banner("Perf raster",
           "raster-bound scenario (NoAF), one run per SIMD tier");

    const char *fenv = std::getenv("PARGPU_FRAMES");
    const int frames = fenv ? numFrames() : 4;
    // UT3 arena: the most triangle-dense trace, at paper-native
    // resolution; NoAF keeps the texture units on the cheap trilinear
    // path so rasterization and framebuffer work set the pace.
    GameTrace trace = buildGameTrace(GameId::Ut3, 1280, 1024, frames);

    RunConfig cfg;
    cfg.scenario = DesignScenario::NoAF;
    cfg.keep_images = false;
    cfg.threads = 1;
    // One thread in the process: idle pool threads would otherwise join
    // the frames' tile streams and blur the per-tier comparison.
    ThreadPool::setDefaultThreads(1);

    const unsigned hw = std::thread::hardware_concurrency();
    const simd::SimdTier saved = simd::activeTier();

    std::vector<simd::SimdTier> tiers{simd::SimdTier::Scalar};
    if (simd::hostHasSse() &&
        static_cast<int>(simd::detectTier()) >=
            static_cast<int>(simd::SimdTier::Sse))
        tiers.push_back(simd::SimdTier::Sse);
    if (simd::hostHasAvx2() &&
        static_cast<int>(simd::detectTier()) >=
            static_cast<int>(simd::SimdTier::Avx2))
        tiers.push_back(simd::SimdTier::Avx2);

    session.run(trace, cfg); // Warm-up outside every timed region.

    std::vector<double> tier_sec(tiers.size(), 0.0);
    RunResult ref;
    bool identical = true;
    for (std::size_t i = 0; i < tiers.size(); ++i) {
        simd::setActiveTier(tiers[i]);
        auto t0 = std::chrono::steady_clock::now();
        RunResult r = session.run(trace, cfg);
        auto t1 = std::chrono::steady_clock::now();
        tier_sec[i] = seconds(t0, t1);
        if (i == 0) {
            ref = std::move(r);
        } else {
            const bool same = runsIdentical(ref, r);
            identical = identical && same;
            if (!same)
                std::fprintf(stderr, "tier %s diverged from scalar!\n",
                             simd::tierName(tiers[i]));
        }
    }
    simd::setActiveTier(saved);
    ThreadPool::setDefaultThreads(0);

    const double quads =
        sumOver(ref.frames, &FrameStats::raster_simd_quads);
    const double fills = sumOver(ref.frames, &FrameStats::fb_simd_fills);
    const double arena_bytes =
        sumOver(ref.frames, &FrameStats::arena_frame_bytes);

    std::printf("%d frames at %dx%d (scenario noaf, 1 thread), "
                "%u hardware cores\n",
                frames, trace.width, trace.height, hw);
    for (std::size_t i = 0; i < tiers.size(); ++i)
        std::printf("  %-6s : %7.2f s  (%.2fx vs scalar)\n",
                    simd::tierName(tiers[i]), tier_sec[i],
                    tier_sec[0] / tier_sec[i]);
    std::printf("  hot path : %.0f simd quads, %.0f fb fills, "
                "%.0f arena bytes/frame\n",
                quads, fills, arena_bytes / frames);
    std::printf("  bit-identical across tiers: %s\n",
                identical ? "yes" : "NO");

    FILE *f = std::fopen("BENCH_raster.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_raster.json\n");
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"perf_raster\",\n"
                 "  \"workload\": \"ut3\",\n"
                 "  \"scenario\": \"noaf\",\n"
                 "  \"frames\": %d,\n"
                 "  \"width\": %d,\n"
                 "  \"height\": %d,\n"
                 "  \"threads\": 1,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"cpu_sse\": %s,\n"
                 "  \"cpu_avx2\": %s,\n"
                 "  \"raster_simd_quads\": %.0f,\n"
                 "  \"fb_simd_fills\": %.0f,\n"
                 "  \"arena_bytes_per_frame\": %.0f,\n"
                 "  \"tiers\": [\n",
                 frames, trace.width, trace.height, hw,
                 simd::hostHasSse() ? "true" : "false",
                 simd::hostHasAvx2() ? "true" : "false", quads, fills,
                 arena_bytes / frames);
    for (std::size_t i = 0; i < tiers.size(); ++i)
        std::fprintf(f,
                     "    {\"tier\": \"%s\", \"seconds\": %.6f, "
                     "\"speedup_vs_scalar\": %.6f}%s\n",
                     simd::tierName(tiers[i]), tier_sec[i],
                     tier_sec[0] / tier_sec[i],
                     i + 1 < tiers.size() ? "," : "");
    std::fprintf(f,
                 "  ],\n"
                 "  \"bit_identical\": %s\n"
                 "}\n",
                 identical ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_raster.json\n");

    Workload w;
    w.label = "UT3-" + std::to_string(trace.width) + "x" +
        std::to_string(trace.height);
    w.trace = std::move(trace);
    maybeWriteMetrics("perf_raster", w, cfg, ref);

    return identical ? 0 : 1;
}
