/**
 * @file
 * Unit tests for the PATU-extended texture unit: filtering decisions,
 * texel accounting and timing behaviour on controlled quads.
 */

#include <gtest/gtest.h>

#include "sim/texunit.hh"
#include "texture/procedural.hh"

using namespace pargpu;

namespace
{

// A fully-covered quad with controllable anisotropy (texels per pixel
// along x vs y on a 64x64 texture).
QuadFragment
quadWithAniso(float texels_x, float texels_y)
{
    QuadFragment q;
    q.x = 0;
    q.y = 0;
    q.coverage = 0xF;
    Vec2 base{0.5f, 0.5f};
    q.duvdx = {texels_x / 64.0f, 0.0f};
    q.duvdy = {0.0f, texels_y / 64.0f};
    for (int i = 0; i < 4; ++i) {
        q.uv[i] = Vec2{base.x + (i & 1) * q.duvdx.x,
                       base.y + (i >> 1) * q.duvdy.y};
        q.depth[i] = 0.5f;
    }
    return q;
}

struct Fixture
{
    GpuConfig config;
    MemorySystem mem;
    TextureMap tex;

    explicit Fixture(DesignScenario s, float threshold = 0.4f)
        : config(makeConfig(s, threshold)),
          mem(config.mem),
          tex(64, 64, generateTexture(TextureKind::Noise, 64, 7))
    {
        tex.setBaseAddr(0x1000'0000);
    }

    static GpuConfig
    makeConfig(DesignScenario s, float threshold)
    {
        GpuConfig c;
        c.patu.scenario = s;
        c.patu.threshold = threshold;
        return c;
    }
};

} // namespace

TEST(TexUnitTest, IsotropicQuadFiltersOneSamplePerPixel)
{
    Fixture f(DesignScenario::Baseline);
    TextureUnit tu(f.config, 0, f.mem);
    QuadFilterResult r = tu.processQuad(quadWithAniso(1, 1), f.tex,
                                        FilterMode::Anisotropic, 0);
    EXPECT_EQ(tu.stats().pixels, 4u);
    EXPECT_EQ(tu.stats().trilinear_samples, 4u);
    EXPECT_EQ(tu.stats().texels, 32u);
    EXPECT_GT(r.busy, 0u);
}

TEST(TexUnitTest, BaselineFiltersAllAnisoSamples)
{
    Fixture f(DesignScenario::Baseline);
    TextureUnit tu(f.config, 0, f.mem);
    tu.processQuad(quadWithAniso(8, 1), f.tex, FilterMode::Anisotropic,
                   0);
    // N = 8: 8 samples per pixel, 4 pixels.
    EXPECT_EQ(tu.stats().trilinear_samples, 32u);
    EXPECT_EQ(tu.stats().texels, 256u);
    EXPECT_EQ(tu.stats().full_af, 4u);
}

TEST(TexUnitTest, NoAfAlwaysSingleSample)
{
    Fixture f(DesignScenario::NoAF);
    TextureUnit tu(f.config, 0, f.mem);
    tu.processQuad(quadWithAniso(8, 1), f.tex, FilterMode::Anisotropic,
                   0);
    EXPECT_EQ(tu.stats().trilinear_samples, 4u);
    EXPECT_EQ(tu.stats().texels, 32u);
}

TEST(TexUnitTest, PatuStage1ApproximatesSmallN)
{
    Fixture f(DesignScenario::Patu, 0.4f);
    TextureUnit tu(f.config, 0, f.mem);
    tu.processQuad(quadWithAniso(2, 1), f.tex, FilterMode::Anisotropic,
                   0);
    EXPECT_EQ(tu.stats().approx_stage1, 4u);
    EXPECT_EQ(tu.stats().trilinear_samples, 4u);
}

TEST(TexUnitTest, PatuReducesWorkVsBaseline)
{
    Fixture fb(DesignScenario::Baseline);
    TextureUnit base_tu(fb.config, 0, fb.mem);
    base_tu.processQuad(quadWithAniso(12, 1), fb.tex,
                        FilterMode::Anisotropic, 0);

    Fixture fp(DesignScenario::Patu, 0.4f);
    TextureUnit patu_tu(fp.config, 0, fp.mem);
    patu_tu.processQuad(quadWithAniso(12, 1), fp.tex,
                        FilterMode::Anisotropic, 0);

    EXPECT_LE(patu_tu.stats().texels, base_tu.stats().texels);
    EXPECT_LE(patu_tu.stats().filter_busy, base_tu.stats().filter_busy);
}

TEST(TexUnitTest, TrilinearModeIgnoresPatu)
{
    Fixture f(DesignScenario::Patu, 0.4f);
    TextureUnit tu(f.config, 0, f.mem);
    tu.processQuad(quadWithAniso(8, 1), f.tex, FilterMode::Trilinear, 0);
    EXPECT_EQ(tu.stats().trilinear_samples, 4u);
    EXPECT_EQ(tu.stats().af_candidate_pixels, 0u);
}

TEST(TexUnitTest, PartialCoverageProcessesOnlyCoveredPixels)
{
    Fixture f(DesignScenario::Baseline);
    TextureUnit tu(f.config, 0, f.mem);
    QuadFragment q = quadWithAniso(1, 1);
    q.coverage = 0x5; // Pixels 0 and 2.
    tu.processQuad(q, f.tex, FilterMode::Anisotropic, 0);
    EXPECT_EQ(tu.stats().pixels, 2u);
}

TEST(TexUnitTest, ColorsMatchStandaloneSamplerForBaseline)
{
    Fixture f(DesignScenario::Baseline);
    TextureUnit tu(f.config, 0, f.mem);
    QuadFragment q = quadWithAniso(4, 1);
    QuadFilterResult r = tu.processQuad(q, f.tex,
                                        FilterMode::Anisotropic, 0);

    TextureSampler s(f.tex);
    AnisotropyInfo info = s.computeAnisotropy(q.duvdx, q.duvdy, 16);
    TrilinearSample samples[TextureSampler::kMaxAniso];
    Color4f expect =
        s.filterAnisotropicInto(q.uv[0], info, samples, nullptr);
    EXPECT_NEAR(r.color[0].r, expect.r, 1e-5f);
    EXPECT_NEAR(r.color[0].g, expect.g, 1e-5f);
}

TEST(TexUnitTest, ApproximatedColorIsTrilinearAtChosenLod)
{
    Fixture f(DesignScenario::Patu, 0.4f);
    TextureUnit tu(f.config, 0, f.mem);
    QuadFragment q = quadWithAniso(2, 1); // Stage-1 approximation.
    QuadFilterResult r = tu.processQuad(q, f.tex,
                                        FilterMode::Anisotropic, 0);

    TextureSampler s(f.tex);
    AnisotropyInfo info = s.computeAnisotropy(q.duvdx, q.duvdy, 16);
    // PATU uses AF's LOD for approximated pixels.
    TrilinearSample expect = s.trilinear(q.uv[0], info.lodAF);
    EXPECT_NEAR(r.color[0].r, expect.color.r, 1e-5f);
}

TEST(TexUnitTest, StatsResetClearsCounters)
{
    Fixture f(DesignScenario::Baseline);
    TextureUnit tu(f.config, 0, f.mem);
    tu.processQuad(quadWithAniso(4, 1), f.tex, FilterMode::Anisotropic,
                   0);
    EXPECT_GT(tu.stats().pixels, 0u);
    tu.resetStats();
    EXPECT_EQ(tu.stats().pixels, 0u);
    EXPECT_EQ(tu.stats().texels, 0u);
    EXPECT_EQ(tu.stats().filter_busy, 0u);
}

TEST(TexUnitTest, MemoryTrafficFlowsThroughTextureClass)
{
    Fixture f(DesignScenario::Baseline);
    TextureUnit tu(f.config, 0, f.mem);
    tu.processQuad(quadWithAniso(8, 1), f.tex, FilterMode::Anisotropic,
                   0);
    EXPECT_GT(f.mem.trafficBytes(TrafficClass::Texture), 0u);
    EXPECT_EQ(f.mem.trafficBytes(TrafficClass::Geometry), 0u);
}

TEST(TexUnitTest, DivergenceCountedWhenPixelsDisagree)
{
    // Craft a quad whose pixels straddle the stage-1 threshold: two pixels
    // with N = 2 (approximated at threshold 0.4) and two with high N.
    // Divergence requires differing uv derivatives per pixel, which a
    // single quad cannot express (shared derivatives); so instead verify
    // the no-divergence case is not counted.
    Fixture f(DesignScenario::Patu, 0.4f);
    TextureUnit tu(f.config, 0, f.mem);
    tu.processQuad(quadWithAniso(8, 1), f.tex, FilterMode::Anisotropic,
                   0);
    EXPECT_EQ(tu.stats().divergent_quads, 0u);
    EXPECT_EQ(tu.stats().af_quads, 1u);
}
