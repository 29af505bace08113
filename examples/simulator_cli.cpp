/**
 * @file
 * Command-line simulator driver: render any game workload under any
 * design scenario and print the full measurement set — the ATTILA-style
 * "run a trace, dump stats" workflow.
 *
 * Usage:
 *   simulator_cli [--game hl2|doom3|grid|nfs|stal|ut3|wolf|rbench]
 *                 [--scenario MODE] [--threshold T] [--width W]
 *                 [--height H] [--frames N] [--tc-scale S]
 *                 [--llc-scale S] [--threads N] [--stereo]
 *                 [--dump-ppm PREFIX]
 *
 * MODE is any filter mode of scenarioRegistry() (baseline, noaf, n,
 * ntxds, patu, stf_uniform, stf_blue, stf_weighted,
 * filter_after_shading; docs/FILTERING.md). Numbers must parse whole and
 * pass RunConfig::validate(); a malformed flag exits 2, like
 * pargpu_harness.
 *
 * --threads N renders frames N-wide in parallel; results are
 * bit-identical to a serial run. This example reads no environment:
 * PARGPU_THREADS and the other PARGPU_* variables apply only where an
 * entry point calls parseEnvironment() (pargpu_harness, pargpu_serve,
 * the tests and the benches).
 */

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "pargpu/config.hh"
#include "pargpu/power.hh"
#include "pargpu/session.hh"
#include "pargpu/sim.hh"
#include "pargpu/threading.hh"
#include "pargpu/trace.hh"

using namespace pargpu;

namespace
{

struct Options
{
    GameId game = GameId::HL2;
    RunConfig run;
    int width = 640;
    int height = 512;
    int frames = 2;
    bool stereo = false;
    std::string dump_prefix;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    // Every malformed flag exits 2, as in pargpu_harness.
    auto fail = [](const std::string &message) {
        std::fprintf(stderr, "%s\n", message.c_str());
        std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&]() -> std::string {
            if (i + 1 >= argc)
                fail(a + " needs a value");
            return argv[++i];
        };
        // The whole value must parse and fit the field's type;
        // RunConfig::validate() checks the legal range afterwards.
        auto number = [&](auto &field) {
            const std::string v = need();
            const char *end = v.data() + v.size();
            const std::from_chars_result r =
                std::from_chars(v.data(), end, field);
            if (r.ec != std::errc() || r.ptr != end)
                fail("invalid value '" + v + "' for " + a);
        };
        if (a == "--game") {
            const std::string v = need();
            if (!parseGameName(v, o.game))
                fail("unknown game '" + v + "'");
        } else if (a == "--scenario") {
            const std::string v = need();
            if (!parseScenarioName(v, o.run.scenario))
                fail("unknown scenario '" + v + "'");
        } else if (a == "--threshold") {
            number(o.run.threshold);
        } else if (a == "--width") {
            number(o.width);
        } else if (a == "--height") {
            number(o.height);
        } else if (a == "--frames") {
            number(o.frames);
        } else if (a == "--tc-scale") {
            number(o.run.tc_scale);
        } else if (a == "--llc-scale") {
            number(o.run.llc_scale);
        } else if (a == "--threads") {
            number(o.run.threads);
        } else if (a == "--stereo") {
            o.stereo = true;
        } else if (a == "--dump-ppm") {
            o.dump_prefix = need();
        } else if (a == "--help" || a == "-h") {
            std::printf("see the file header for usage\n");
            std::exit(0);
        } else {
            fail("unknown option '" + a + "'");
        }
    }
    if (o.width <= 0 || o.height <= 0 || o.frames <= 0)
        fail("viewport and frame count must be positive");
    if (!withinTraceBudget(static_cast<std::uint64_t>(o.width),
                           static_cast<std::uint64_t>(o.height),
                           static_cast<std::uint64_t>(o.frames)))
        fail(traceBudgetMessage());
    const std::vector<ConfigError> errors = o.run.validate();
    for (ConfigError e : errors)
        std::fprintf(stderr, "invalid option: %s\n", configErrorMessage(e));
    if (!errors.empty())
        std::exit(2);
    if (o.run.threads > 0)
        ThreadPool::setDefaultThreads(static_cast<unsigned>(o.run.threads));
    return o;
}

void
printFrame(const char *tag, const FrameStats &f)
{
    EnergyBreakdown e = computeEnergy(f);
    std::printf("[%s]\n", tag);
    std::printf("  total cycles          %llu (%.2f fps @1GHz)\n",
                static_cast<unsigned long long>(f.total_cycles), f.fps());
    std::printf("  geometry / fragment   %llu / %llu\n",
                static_cast<unsigned long long>(f.geometry_cycles),
                static_cast<unsigned long long>(f.fragment_cycles));
    std::printf("  texture filter cycles %llu (stall %llu)\n",
                static_cast<unsigned long long>(f.texture_filter_cycles),
                static_cast<unsigned long long>(f.texture_mem_stall));
    std::printf("  pixels / quads        %llu / %llu\n",
                static_cast<unsigned long long>(f.pixels_shaded),
                static_cast<unsigned long long>(f.quads));
    std::printf("  trilinear / texels    %llu / %llu\n",
                static_cast<unsigned long long>(f.trilinear_samples),
                static_cast<unsigned long long>(f.texels));
    std::printf("  decisions: trivial %llu  st1 %llu  st2 %llu  "
                "fullAF %llu\n",
                static_cast<unsigned long long>(f.trivial_tf),
                static_cast<unsigned long long>(f.approx_stage1),
                static_cast<unsigned long long>(f.approx_stage2),
                static_cast<unsigned long long>(f.full_af));
    std::printf("  traffic (B): tex %llu  col/z %llu  geo %llu\n",
                static_cast<unsigned long long>(f.traffic_texture),
                static_cast<unsigned long long>(f.traffic_colordepth),
                static_cast<unsigned long long>(f.traffic_geometry));
    std::printf("  caches: L1 %.1f%%  LLC %.1f%%  DRAM reads %llu\n",
                100.0 * f.l1_hits /
                    std::max<std::uint64_t>(1, f.l1_hits + f.l1_misses),
                100.0 * f.llc_hits /
                    std::max<std::uint64_t>(1, f.llc_hits + f.llc_misses),
                static_cast<unsigned long long>(f.dram_reads));
    std::printf("  energy: %.3f mJ (%.2f W avg)\n",
                e.total_nj() * 1e-6, averagePowerW(e, f));
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    GameTrace trace = buildGameTrace(o.game, o.width, o.height, o.frames);

    std::printf("workload  : %s (%zu draws, %zu tris, %zu textures)\n",
                trace.name.c_str(), trace.scene.draws.size(),
                trace.scene.numTriangles(), trace.scene.textures.size());
    std::printf("scenario  : %s, threshold %.2f%s\n",
                scenarioName(o.run.scenario), o.run.threshold,
                o.stereo ? ", stereo" : "");
    std::printf("threads   : %u\n",
                o.run.threads > 0 ? static_cast<unsigned>(o.run.threads)
                                  : ThreadPool::defaultThreads());

    if (o.stereo) {
        GpuSimulator sim(makeGpuConfig(o.run));
        for (int f = 0; f < o.frames; ++f) {
            const Camera &cam = trace.cameras[f];
            StereoFrame sf = renderStereo(sim, trace.scene, cam, o.width,
                                          o.height);
            std::printf("\n=== frame %d (stereo: %llu total cycles) ===\n",
                        f, static_cast<unsigned long long>(
                               sf.totalCycles()));
            printFrame("left eye", sf.left.stats);
            printFrame("right eye", sf.right.stats);
            if (!o.dump_prefix.empty()) {
                sf.left.image.writePPM(o.dump_prefix + "_f" +
                                       std::to_string(f) + "_L.ppm");
                sf.right.image.writePPM(o.dump_prefix + "_f" +
                                        std::to_string(f) + "_R.ppm");
            }
        }
        return 0;
    }

    // Mono path: frames render (possibly in parallel) through the
    // harness, then print in order — output is identical to a serial run.
    o.run.keep_images = !o.dump_prefix.empty();
    Session session;
    RunResult run = session.run(trace, o.run);
    for (int f = 0; f < o.frames; ++f) {
        std::printf("\n=== frame %d ===\n", f);
        printFrame("frame", run.frames[f]);
        if (!o.dump_prefix.empty()) {
            run.images[f].writePPM(o.dump_prefix + "_f" +
                                   std::to_string(f) + ".ppm");
        }
    }
    return 0;
}
