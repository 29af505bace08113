/**
 * @file
 * Perf smoke test, two sections:
 *
 * 1. Parallel engine — times Session::run() at 1 thread and at N
 *    threads on a fixed workload, checks the results are bit-identical,
 *    and writes BENCH_parallel.json (simulation throughput + parallel
 *    speedup).
 *
 * 2. Texel hot path — times the texel-bound scenario (baseline 16xAF:
 *    every texel fetched, no PATU approximation) single-threaded and
 *    writes BENCH_texel.json with the wall-clock speedup against the
 *    recorded pre-rework reference (kTexelSeedSecPerFrame, measured in
 *    the same container before the Morton-storage/memo/batching rework).
 *    Also reports the new hot-path counters (memo hit rate, distinct
 *    lines per quad).
 *
 * With PARGPU_METRICS_DIR set, both sections additionally export the
 * standard metrics document; scripts/check.sh gates the texel export
 * against bench/baselines/ via tools/pargpu_report.py.
 *
 * Environment:
 *   PARGPU_THREADS   parallel thread count (default: hardware cores)
 *   PARGPU_FRAMES    frames in the timed traces (default: 8 here)
 */

#include <chrono>
#include <cstdio>
#include <thread>

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

} // namespace

int
main()
{
    applyEnvironment();
    Session session;
    banner("Perf smoke", "Session::run wall-clock, 1 vs N threads");

    const char *fenv = std::getenv("PARGPU_FRAMES");
    const int frames = fenv ? numFrames() : 8;
    GameTrace trace = buildGameTrace(GameId::HL2, scaleDim(1280),
                                     scaleDim(1024), frames);

    const unsigned hw = std::thread::hardware_concurrency();
    const bool cpu_sse = simd::hostHasSse();
    const bool cpu_avx2 = simd::hostHasAvx2();
    const char *dispatch = simd::tierName(simd::activeTier());
    unsigned n_threads = ThreadPool::defaultThreads();
    if (n_threads < 2)
        n_threads = 2; // Exercise the parallel path even on 1 core.

    RunConfig serial_cfg;
    serial_cfg.scenario = DesignScenario::Patu;
    serial_cfg.threshold = 0.4f;
    serial_cfg.keep_images = false;
    serial_cfg.threads = 1;
    RunConfig parallel_cfg = serial_cfg;
    parallel_cfg.threads = static_cast<int>(n_threads);

    // Warm up once (page cache, pool spin-up) outside the timed region.
    session.run(trace, parallel_cfg);

    // One thread in the process: idle pool threads would otherwise join
    // the serial run's tile streams.
    ThreadPool::setDefaultThreads(1);
    auto t0 = std::chrono::steady_clock::now();
    RunResult serial = session.run(trace, serial_cfg);
    auto t1 = std::chrono::steady_clock::now();
    ThreadPool::setDefaultThreads(0);
    RunResult parallel = session.run(trace, parallel_cfg);
    auto t2 = std::chrono::steady_clock::now();

    const double s_sec = seconds(t0, t1);
    const double p_sec = seconds(t1, t2);
    const double s_fps = frames / s_sec;
    const double p_fps = frames / p_sec;
    const double speedup = s_sec / p_sec;

    bool identical = serial.frames.size() == parallel.frames.size() &&
        serial.avg_cycles == parallel.avg_cycles &&
        serial.total_energy_nj == parallel.total_energy_nj &&
        serial.avg_power_w == parallel.avg_power_w;
    for (std::size_t i = 0; identical && i < serial.frames.size(); ++i)
        identical = serial.frames[i].total_cycles ==
            parallel.frames[i].total_cycles;

    std::printf("%d frames at %dx%d, %u hardware cores\n", frames,
                trace.width, trace.height, hw);
    std::printf("  1 thread : %7.2f s  (%6.3f frames/s)\n", s_sec, s_fps);
    std::printf("  %u threads: %7.2f s  (%6.3f frames/s)\n", n_threads,
                p_sec, p_fps);
    std::printf("  speedup  : %.2fx   bit-identical: %s\n", speedup,
                identical ? "yes" : "NO");

    FILE *f = std::fopen("BENCH_parallel.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"perf_smoke\",\n"
                 "  \"workload\": \"hl2\",\n"
                 "  \"frames\": %d,\n"
                 "  \"width\": %d,\n"
                 "  \"height\": %d,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"cpu_sse\": %s,\n"
                 "  \"cpu_avx2\": %s,\n"
                 "  \"simd_dispatch\": \"%s\",\n"
                 "  \"threads\": %u,\n"
                 "  \"serial_seconds\": %.6f,\n"
                 "  \"parallel_seconds\": %.6f,\n"
                 "  \"serial_frames_per_sec\": %.6f,\n"
                 "  \"parallel_frames_per_sec\": %.6f,\n"
                 "  \"speedup\": %.6f,\n"
                 "  \"bit_identical\": %s\n"
                 "}\n",
                 frames, trace.width, trace.height, hw,
                 cpu_sse ? "true" : "false", cpu_avx2 ? "true" : "false",
                 dispatch, n_threads, s_sec,
                 p_sec, s_fps, p_fps, speedup,
                 identical ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_parallel.json\n");

    // Also export the serial run in the standard metrics schema when
    // PARGPU_METRICS_DIR is set, so perf_smoke results feed
    // tools/pargpu_report.py like every other producer.
    Workload w;
    w.label = "HL2-" + std::to_string(trace.width) + "x" +
        std::to_string(trace.height);
    w.trace = std::move(trace);
    maybeWriteMetrics("perf_smoke", w, serial_cfg, serial);

    // ---- Section 2: texel hot path -----------------------------------
    // Baseline 16xAF is the texel-bound extreme: every pixel runs full
    // anisotropic filtering, so wall-clock is dominated by footprint
    // fetches and cache-model traffic. Single-threaded on a fixed
    // 640x512 viewport so the number is comparable across machines of
    // different core counts and across PRs.
    banner("Perf smoke: texel hot path",
           "baseline 16xAF 640x512, 1 thread, vs pre-rework reference");

    // Wall-clock per frame of this workload before the texel-hot-path
    // rework (linear-only storage, per-texel cache probes, heap-based
    // sample buffers), measured in the CI container. Informational
    // yardstick: simulated metrics are gated by pargpu_report.py
    // instead, because wall-clock depends on the machine.
    constexpr double kTexelSeedSecPerFrame = 2.73 / 4.0;

    // Same workload after the PR-4/5 texel rework but before the SoA
    // kernel layer (committed bench/baselines reference run). The SIMD
    // acceptance bar is measured against this number.
    constexpr double kTexelPr4SecPerFrame = 0.374622;

    // And after the first SoA kernel round (PR 6) but before the fused
    // gather/raster/framebuffer/arena work — the reference this PR's
    // hot-path push is measured against.
    constexpr double kTexelPr6SecPerFrame = 0.286801;

    GameTrace texel_trace =
        buildGameTrace(GameId::HL2, 640, 512, frames);
    RunConfig texel_cfg;
    texel_cfg.scenario = DesignScenario::Baseline;
    texel_cfg.keep_images = false;
    texel_cfg.threads = 1;

    // Single-threaded, like the constants above.
    ThreadPool::setDefaultThreads(1);
    session.run(texel_trace, texel_cfg); // Warm-up outside the timed region.
    auto t3 = std::chrono::steady_clock::now();
    RunResult texel = session.run(texel_trace, texel_cfg);
    auto t4 = std::chrono::steady_clock::now();
    ThreadPool::setDefaultThreads(0);

    const double x_sec = seconds(t3, t4);
    const double x_fps = frames / x_sec;
    const double sec_per_frame = x_sec / frames;
    const double speedup_vs_seed = kTexelSeedSecPerFrame / sec_per_frame;
    const double speedup_vs_pr4 = kTexelPr4SecPerFrame / sec_per_frame;
    const double speedup_vs_pr6 = kTexelPr6SecPerFrame / sec_per_frame;

    const double quads = sumOver(texel.frames, &FrameStats::quads);
    const double lines = sumOver(texel.frames, &FrameStats::tex_lines);
    const double lookups =
        sumOver(texel.frames, &FrameStats::memo_lookups);
    const double hits = sumOver(texel.frames, &FrameStats::memo_hits);
    const double lines_per_quad = quads > 0.0 ? lines / quads : 0.0;
    const double memo_hit_rate = lookups > 0.0 ? hits / lookups : 0.0;

    std::printf("%d frames at 640x512 (scenario baseline, 1 thread)\n",
                frames);
    std::printf("  wall     : %7.2f s  (%6.3f frames/s)\n", x_sec, x_fps);
    std::printf("  vs seed  : %.2fx   (seed %.3f s/frame, this run %.3f)\n",
                speedup_vs_seed, kTexelSeedSecPerFrame, sec_per_frame);
    std::printf("  vs PR4   : %.2fx   (PR4 %.3f s/frame, dispatch %s)\n",
                speedup_vs_pr4, kTexelPr4SecPerFrame, dispatch);
    std::printf("  vs PR6   : %.2fx   (PR6 %.3f s/frame)\n",
                speedup_vs_pr6, kTexelPr6SecPerFrame);
    std::printf("  hot path : %.3f memo hit rate, %.2f lines/quad\n",
                memo_hit_rate, lines_per_quad);

    f = std::fopen("BENCH_texel.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_texel.json\n");
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"perf_smoke_texel\",\n"
                 "  \"workload\": \"hl2\",\n"
                 "  \"scenario\": \"baseline\",\n"
                 "  \"frames\": %d,\n"
                 "  \"width\": 640,\n"
                 "  \"height\": 512,\n"
                 "  \"threads\": 1,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"cpu_sse\": %s,\n"
                 "  \"cpu_avx2\": %s,\n"
                 "  \"simd_dispatch\": \"%s\",\n"
                 "  \"seconds\": %.6f,\n"
                 "  \"frames_per_sec\": %.6f,\n"
                 "  \"seconds_per_frame\": %.6f,\n"
                 "  \"seed_seconds_per_frame\": %.6f,\n"
                 "  \"speedup_vs_seed\": %.6f,\n"
                 "  \"pr4_seconds_per_frame\": %.6f,\n"
                 "  \"speedup_vs_pr4\": %.6f,\n"
                 "  \"pr6_seconds_per_frame\": %.6f,\n"
                 "  \"speedup_vs_pr6\": %.6f,\n"
                 "  \"memo_hit_rate\": %.6f,\n"
                 "  \"lines_per_quad\": %.6f\n"
                 "}\n",
                 frames, hw, cpu_sse ? "true" : "false",
                 cpu_avx2 ? "true" : "false", dispatch, x_sec, x_fps,
                 sec_per_frame, kTexelSeedSecPerFrame, speedup_vs_seed,
                 kTexelPr4SecPerFrame, speedup_vs_pr4,
                 kTexelPr6SecPerFrame, speedup_vs_pr6, memo_hit_rate,
                 lines_per_quad);
    std::fclose(f);
    std::printf("wrote BENCH_texel.json\n");

    Workload tw;
    tw.label = "HL2-640x512";
    tw.trace = std::move(texel_trace);
    maybeWriteMetrics("perf_texel", tw, texel_cfg, texel);

    return identical ? 0 : 1;
}
