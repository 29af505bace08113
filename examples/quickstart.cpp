/**
 * @file
 * Quickstart: render one frame of a game scene with the baseline 16x AF
 * texture unit and again with PATU, then compare performance, energy and
 * perceived quality.
 *
 * Usage: quickstart [width height]
 * A malformed or out-of-range number exits 2.
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
    int width = 640, height = 480;
    if (argc >= 3) {
        width = wholeNumber(argv[1], "width");
        height = wholeNumber(argv[2], "height");
    }

    RunConfig base_cfg;
    base_cfg.scenario = DesignScenario::Baseline;
    RunConfig patu_cfg;
    patu_cfg.scenario = DesignScenario::Patu;
    patu_cfg.threshold = 0.4f;
    orExit(validateRunConfig(base_cfg));
    orExit(validateRunConfig(patu_cfg));

    // The scene decodes once into the session; both runs share it.
    Session session;
    orExit(session.load("hl2", GameId::HL2, width, height, 1));
    std::printf("pargpu quickstart: HL2-style scene at %dx%d\n\n",
                width, height);

    RunResult base = session.submit("hl2", base_cfg)->result();
    RunResult patu = session.submit("hl2", patu_cfg)->result();

    double speedup = base.avg_cycles / patu.avg_cycles;
    double energy = patu.total_energy_nj / base.total_energy_nj;
    double quality = patu.mssimAgainst(base.images);

    const FrameStats &bs = base.frames[0];
    const FrameStats &ps = patu.frames[0];

    std::printf("%-28s %14s %14s\n", "", "Baseline-16xAF", "PATU(0.4)");
    std::printf("%-28s %14llu %14llu\n", "frame cycles",
                static_cast<unsigned long long>(bs.total_cycles),
                static_cast<unsigned long long>(ps.total_cycles));
    std::printf("%-28s %14llu %14llu\n", "texture filter cycles",
                static_cast<unsigned long long>(bs.texture_filter_cycles),
                static_cast<unsigned long long>(ps.texture_filter_cycles));
    std::printf("%-28s %14llu %14llu\n", "trilinear samples",
                static_cast<unsigned long long>(bs.trilinear_samples),
                static_cast<unsigned long long>(ps.trilinear_samples));
    std::printf("%-28s %14llu %14llu\n", "texels fetched",
                static_cast<unsigned long long>(bs.texels),
                static_cast<unsigned long long>(ps.texels));
    std::printf("%-28s %14.2f %14.2f\n", "fps @1GHz",
                bs.fps(), ps.fps());
    std::printf("\n");
    std::printf("PATU decisions: trivial-TF %llu, stage-1 %llu, "
                "stage-2 %llu, full-AF %llu\n",
                static_cast<unsigned long long>(ps.trivial_tf),
                static_cast<unsigned long long>(ps.approx_stage1),
                static_cast<unsigned long long>(ps.approx_stage2),
                static_cast<unsigned long long>(ps.full_af));
    std::printf("\n");
    std::printf("speedup            : %.3fx\n", speedup);
    std::printf("energy (vs base)   : %.3fx\n", energy);
    std::printf("MSSIM (vs base)    : %.4f\n", quality);

    if (base.images[0].writePPM("quickstart_baseline.ppm") &&
        patu.images[0].writePPM("quickstart_patu.ppm")) {
        std::printf("\nwrote quickstart_baseline.ppm / "
                    "quickstart_patu.ppm\n");
    }
    return 0;
}
