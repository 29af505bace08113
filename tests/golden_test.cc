/**
 * @file
 * Golden digests: frozen 64-bit fingerprints of whole runs.
 *
 * The determinism tests compare execution modes against each other, so a
 * change that moves every mode the same way passes them. These digests
 * pin the absolute output instead: for each case, one FNV-1a hash over
 * every FrameStats field (per-cluster shards included), every image
 * byte, and every registry counter and scalar except the three that
 * report host settings (the SIMD tier: simd.dispatch,
 * texunit.simd_width; the texel storage: texture.morton_storage). Each
 * small case runs with one thread, with three pool threads free to join
 * its frames' tile streams, and at the process default (PARGPU_THREADS);
 * all must hit the frozen value. The two large-viewport cases run once,
 * at the process default, so the sanitizer builds stay bounded; the
 * PARGPU_THREADS passes of scripts/check.sh supply their thread counts.
 *
 * A digest changes only when a simulated result changes. When that is
 * the intent, the failure message prints the new value to paste in.
 *
 * A run that keeps no images renders no colors; the digest without the
 * image words must still equal the colored run's, in every filter mode
 * and in the viewport cases.
 */

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "common/threadpool.hh"
#include "harness/metrics.hh"
#include "harness/session.hh"

using namespace pargpu;

namespace
{

/** FNV-1a, fed little-endian bytes of whole words. */
class Digest
{
  public:
    void
    word(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFFu;
            h_ *= kPrime;
        }
    }

    void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
    void real(float v) { word(std::bit_cast<std::uint32_t>(v)); }

    void
    text(const std::string &s)
    {
        word(s.size());
        for (char c : s) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= kPrime;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    static constexpr std::uint64_t kPrime = 0x100000001B3ull;
    std::uint64_t h_ = 0xCBF29CE484222325ull;
};

void
addFrame(Digest &d, const FrameStats &f)
{
    for (std::uint64_t v :
         {f.total_cycles, f.geometry_cycles, f.fragment_cycles,
          f.texture_filter_cycles, f.texture_mem_stall,
          f.shader_busy_cycles, f.triangles_in, f.triangles_setup,
          f.earlyz_tested, f.earlyz_killed, f.quads, f.pixels_shaded,
          f.trilinear_samples, f.texels, f.addr_ops, f.table_accesses,
          f.tex_lines, f.memo_lookups, f.memo_hits, f.simd_batches,
          f.raster_simd_quads, f.fb_simd_fills, f.arena_frame_bytes,
          f.arena_high_water, f.af_candidate_pixels, f.approx_stage1,
          f.approx_stage2, f.full_af, f.trivial_tf, f.af_input_samples,
          f.shared_samples, f.divergent_quads, f.af_quads,
          f.filter_policy, f.stf_samples, f.fas_quads, f.traffic_texture,
          f.traffic_colordepth, f.traffic_geometry, f.l1_hits,
          f.l1_misses, f.llc_hits, f.llc_misses, f.dram_reads,
          f.dram_row_hits})
        d.word(v);
    d.word(f.clusters.size());
    for (const ClusterStats &c : f.clusters)
        for (std::uint64_t v : {c.tiles, c.quads, c.pixels, c.texels,
                                c.cycles, c.filter_busy, c.mem_stall})
            d.word(v);
}

/** The digest of @p run; without the image words if not @p images. */
std::uint64_t
runDigest(const RunResult &run, bool images = true)
{
    Digest d;
    d.word(run.frames.size());
    for (const FrameStats &f : run.frames)
        addFrame(d, f);

    if (images) {
        d.word(run.images.size());
        for (const Image &img : run.images) {
            d.word(static_cast<std::uint64_t>(img.width()));
            d.word(static_cast<std::uint64_t>(img.height()));
            for (const Color4f &p : img.pixels()) {
                d.real(p.r);
                d.real(p.g);
                d.real(p.b);
                d.real(p.a);
            }
        }
    }

    const StatRegistry reg = runRegistry(run);
    for (const auto &[name, v] : reg.counters) {
        d.text(name);
        d.word(v);
    }
    for (const auto &[name, v] : reg.scalars) {
        if (name == "simd.dispatch" || name == "texunit.simd_width" ||
            name == "texture.morton_storage")
            continue;
        d.text(name);
        d.real(v);
    }
    return d.value();
}

struct GoldenCase
{
    GameId game;
    DesignScenario scenario; ///< The filter mode.
    std::uint64_t digest;
};

constexpr int kWidth = 64;
constexpr int kHeight = 48;
constexpr int kFrames = 2;

// 8 games x {noaf, baseline, patu}, HL2 under the two PATU predictor
// stages alone (n, ntxds), then HL2 under the four STF/FAS modes.
const GoldenCase kCases[] = {
    {GameId::HL2, DesignScenario::NoAF, 0x4FCE1C4E71B79C46ull},
    {GameId::HL2, DesignScenario::Baseline, 0x062A70A1A524A6E8ull},
    {GameId::HL2, DesignScenario::Patu, 0xAF2BA393E98F9051ull},
    {GameId::HL2, DesignScenario::AfSsimN, 0x0F81084342182C5Bull},
    {GameId::HL2, DesignScenario::AfSsimNTxds, 0xE70280E77E1548D6ull},
    {GameId::Doom3, DesignScenario::NoAF, 0x377E228F3181CED3ull},
    {GameId::Doom3, DesignScenario::Baseline, 0x655B49060CBDEF3Cull},
    {GameId::Doom3, DesignScenario::Patu, 0x322E433BBC6DAA11ull},
    {GameId::Grid, DesignScenario::NoAF, 0x4F8A8A353B3C1AE7ull},
    {GameId::Grid, DesignScenario::Baseline, 0xF0B44E8CE093E793ull},
    {GameId::Grid, DesignScenario::Patu, 0x28CC60407D3DF0E1ull},
    {GameId::Nfs, DesignScenario::NoAF, 0x118BF2258F025559ull},
    {GameId::Nfs, DesignScenario::Baseline, 0x4D517B6EA9764F80ull},
    {GameId::Nfs, DesignScenario::Patu, 0xA7BF68A4924FF579ull},
    {GameId::Stalker, DesignScenario::NoAF, 0x615C0D1A3E663784ull},
    {GameId::Stalker, DesignScenario::Baseline, 0xFBFA45E8F138B469ull},
    {GameId::Stalker, DesignScenario::Patu, 0x01621F138FBEA7ADull},
    {GameId::Ut3, DesignScenario::NoAF, 0xEA63904D56B523DBull},
    {GameId::Ut3, DesignScenario::Baseline, 0x00FBD4CB003858AAull},
    {GameId::Ut3, DesignScenario::Patu, 0x1AC5C7397A6EF562ull},
    {GameId::Wolf, DesignScenario::NoAF, 0x1089E699DEB32F25ull},
    {GameId::Wolf, DesignScenario::Baseline, 0xD029F2499FA1BD30ull},
    {GameId::Wolf, DesignScenario::Patu, 0x3E7762F5CF91155Full},
    {GameId::RBench, DesignScenario::NoAF, 0x05DCD6245738C9FEull},
    {GameId::RBench, DesignScenario::Baseline, 0x55705F490331C632ull},
    {GameId::RBench, DesignScenario::Patu, 0xC46CFDF72EE78A96ull},
    {GameId::HL2, DesignScenario::StfUniform, 0x65851802B1D46FC9ull},
    {GameId::HL2, DesignScenario::StfBlue, 0x8AA14DA039CDFA26ull},
    {GameId::HL2, DesignScenario::StfWeighted, 0x6E6E92DFE430B534ull},
    {GameId::HL2, DesignScenario::FilterAfterShading, 0x2C3D97957B6954FFull},
};

/** A case at a larger viewport, run once at the process default. */
struct ViewportCase
{
    GoldenCase golden;
    int width;
    int height;
    int frames;
    int clusters; ///< 0 = the Table I default.
};

// The texel-bound Baseline over two 640x512 frames on the default
// clusters, and one 1280x1024 frame on 8 clusters, where each cluster
// logs many tiles of a draw's stream.
const ViewportCase kViewportCases[] = {
    {{GameId::HL2, DesignScenario::Baseline, 0xA8928A43308B91F6ull},
     640, 512, 2, 0},
    {{GameId::HL2, DesignScenario::Baseline, 0x20AC37AE80DE83E9ull},
     1280, 1024, 1, 8},
};

/** Every RunConfig field the digest depends on, set explicitly. */
RunConfig
goldenConfig(const GoldenCase &c)
{
    RunConfig cfg;
    cfg.scenario = c.scenario;
    cfg.threshold = 0.4f;
    cfg.tc_scale = 1;
    cfg.llc_scale = 1;
    cfg.max_aniso = 16;
    cfg.keep_images = true;
    cfg.table_entries = 0;
    cfg.threads = 1;
    cfg.clusters = 4;
    return cfg;
}

std::string
caseName(const GoldenCase &c)
{
    return std::string(gameAbbr(c.game)) + "/" +
        scenarioMetricName(c.scenario);
}

/**
 * Run @p config on @p trace with @p threads pool threads (0 = the process
 * default).
 */
RunResult
runAt(Session &session, const GameTrace &trace, const RunConfig &config,
      unsigned threads)
{
    ThreadPool::setDefaultThreads(threads);
    RunResult run = session.run(trace, config);
    ThreadPool::setDefaultThreads(0);
    return run;
}

/**
 * Run @p config on @p trace with @p threads pool threads and expect
 * @p c's frozen digest. Returns the run.
 */
RunResult
expectDigest(Session &session, const GameTrace &trace,
             const RunConfig &config, const GoldenCase &c,
             unsigned threads)
{
    RunResult run = runAt(session, trace, config, threads);
    const std::uint64_t got = runDigest(run);
    const unsigned ran = threads ? threads : ThreadPool::defaultThreads();
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIX64 "ull", got);
    EXPECT_EQ(got, c.digest) << caseName(c) << " " << trace.width << "x"
                             << trace.height << " (" << ran
                             << " threads): digest is " << hex;
    return run;
}

/**
 * A run that keeps no images renders no colors (GpuConfig::colors); every
 * FrameStats field and registry value must still be the colored run's.
 */
void
expectColorlessMatches(Session &session, const GameTrace &trace,
                       RunConfig config, const RunResult &colored,
                       unsigned threads)
{
    config.keep_images = false;
    const RunResult colorless = runAt(session, trace, config, threads);
    EXPECT_TRUE(colorless.images.empty());
    EXPECT_EQ(runDigest(colorless, false), runDigest(colored, false))
        << trace.name << " " << scenarioMetricName(config.scenario)
        << " at " << threads << " threads";
}

} // namespace

TEST(Golden, DigestsMatchFrozenValues)
{
    Session session;
    GameId built = GameId::HL2;
    GameTrace trace;
    bool have_trace = false;
    for (const GoldenCase &c : kCases) {
        if (!have_trace || c.game != built) {
            trace = buildGameTrace(c.game, kWidth, kHeight, kFrames);
            built = c.game;
            have_trace = true;
        }
        // 0 = the process default.
        for (unsigned threads : {1u, 3u, 0u})
            expectDigest(session, trace, goldenConfig(c), c, threads);
    }
}

TEST(Golden, ViewportDigestsMatchFrozenValues)
{
    Session session;
    for (const ViewportCase &v : kViewportCases) {
        const GameTrace trace =
            buildGameTrace(v.golden.game, v.width, v.height, v.frames);
        RunConfig cfg = goldenConfig(v.golden);
        cfg.clusters = v.clusters;
        const RunResult colored =
            expectDigest(session, trace, cfg, v.golden, 0);
        expectColorlessMatches(session, trace, cfg, colored, 0);
    }
}

TEST(Golden, ColorlessRunsMatchColoredRuns)
{
    Session session;
    for (GameId game : {GameId::HL2, GameId::Ut3}) {
        const GameTrace trace =
            buildGameTrace(game, kWidth, kHeight, kFrames);
        for (const ScenarioDesc &mode : scenarioRegistry()) {
            const RunConfig cfg = goldenConfig({game, mode.id, 0});
            // 0 = the process default.
            for (unsigned threads : {1u, 0u})
                expectColorlessMatches(session, trace, cfg,
                                       runAt(session, trace, cfg, threads),
                                       threads);
        }
    }
}
