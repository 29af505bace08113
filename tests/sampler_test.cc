/**
 * @file
 * Unit tests for the hardware-style texture sampler: anisotropy math,
 * bilinear (trilinear at LOD 0) and trilinear footprints, and anisotropic
 * sample placement (Section IV-A of the paper).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "texture/procedural.hh"
#include "texture/sampler.hh"

using namespace pargpu;

namespace
{

TextureMap
makeTex(int size = 64, TextureKind kind = TextureKind::Noise)
{
    return TextureMap(size, size, generateTexture(kind, size, 7));
}

/** One pixel's AF: the info.sampleSize samples, and their mean color. */
struct AfPixel
{
    std::vector<TrilinearSample> samples;
    Color4f color;
};

AfPixel
filterAf(const TextureSampler &s, const Vec2 &uv, const AnisotropyInfo &info)
{
    AfPixel p;
    p.samples.resize(static_cast<std::size_t>(info.sampleSize));
    p.color = s.filterAnisotropicInto(uv, info, p.samples.data(), nullptr);
    return p;
}

} // namespace

TEST(AnisotropyTest, IsotropicFootprintHasSampleSizeOne)
{
    TextureMap tex = makeTex();
    TextureSampler s(tex);
    // One texel per pixel in both axes.
    Vec2 d{1.0f / 64, 0.0f}, dy{0.0f, 1.0f / 64};
    AnisotropyInfo info = s.computeAnisotropy(d, dy);
    EXPECT_EQ(info.sampleSize, 1);
    EXPECT_NEAR(info.pMax, 1.0f, 1e-4f);
    EXPECT_NEAR(info.pMin, 1.0f, 1e-4f);
    EXPECT_NEAR(info.lodTF, 0.0f, 1e-4f);
    EXPECT_NEAR(info.lodAF, 0.0f, 1e-4f);
}

TEST(AnisotropyTest, SampleSizeEqualsAxisRatio)
{
    TextureMap tex = makeTex();
    TextureSampler s(tex);
    // 4 texels along x, 1 along y: N = 4.
    AnisotropyInfo info = s.computeAnisotropy({4.0f / 64, 0.0f},
                                              {0.0f, 1.0f / 64});
    EXPECT_EQ(info.sampleSize, 4);
    EXPECT_NEAR(info.pMax, 4.0f, 1e-3f);
    EXPECT_NEAR(info.pMin, 1.0f, 1e-3f);
}

TEST(AnisotropyTest, SampleSizeClampsAtMaxAniso)
{
    TextureMap tex = makeTex();
    TextureSampler s(tex);
    AnisotropyInfo info = s.computeAnisotropy({64.0f / 64, 0.0f},
                                              {0.0f, 1.0f / 64}, 16);
    EXPECT_EQ(info.sampleSize, 16);
}

TEST(AnisotropyTest, MaxAnisoParameterRespected)
{
    TextureMap tex = makeTex();
    TextureSampler s(tex);
    AnisotropyInfo info = s.computeAnisotropy({32.0f / 64, 0.0f},
                                              {0.0f, 1.0f / 64}, 8);
    EXPECT_EQ(info.sampleSize, 8);
}

TEST(AnisotropyTest, MajorAxisFollowsLargerDerivative)
{
    TextureMap tex = makeTex();
    TextureSampler s(tex);
    AnisotropyInfo ix = s.computeAnisotropy({8.0f / 64, 0.0f},
                                            {0.0f, 2.0f / 64});
    EXPECT_GT(std::fabs(ix.majorUv.x), std::fabs(ix.majorUv.y));
    AnisotropyInfo iy = s.computeAnisotropy({2.0f / 64, 0.0f},
                                            {0.0f, 8.0f / 64});
    EXPECT_GT(std::fabs(iy.majorUv.y), std::fabs(iy.majorUv.x));
}

// Derivatives of uvs near 1e30 overflow the extents' length() to inf, and
// a NaN derivative makes them NaN. The extents are capped, so the
// degree's int conversion and the LODs stay defined.
TEST(AnisotropyTest, HugeDerivativesStayFinite)
{
    TextureMap tex = makeTex();
    TextureSampler s(tex);
    const float nan = std::nanf("");
    for (const Vec2 &dx : {Vec2{1e30f, 0.0f}, Vec2{1e30f, -1e30f},
                           Vec2{-3e38f, 3e38f}, Vec2{nan, 0.0f}}) {
        SCOPED_TRACE(std::to_string(dx.x) + ", " + std::to_string(dx.y));
        AnisotropyInfo info = s.computeAnisotropy(dx, {0.0f, 1.0f / 64});
        // Within 32: the texture unit's decision-LOD bound.
        EXPECT_LE(info.lodTF, 32.0f);
        EXPECT_GE(info.lodAF, 0.0f);
        EXPECT_EQ(info.anisoDegree, TextureSampler::kMaxAniso);
        EXPECT_EQ(info.sampleSize, TextureSampler::kMaxAniso);
    }
    // Both axes at the cap: an isotropic footprint.
    AnisotropyInfo both = s.computeAnisotropy({1e30f, 0.0f}, {0.0f, 1e30f});
    EXPECT_EQ(both.pMax, both.pMin);
    EXPECT_EQ(both.sampleSize, 1);
    EXPECT_LE(both.lodTF, 32.0f);

    // Below the cap (2^32 texels) an extent is the footprint's exact
    // length, bit for bit.
    const Vec2 big{3e9f / 64, 0.0f};
    AnisotropyInfo below = s.computeAnisotropy(big, {0.0f, 1.0f / 64});
    EXPECT_EQ(std::bit_cast<std::uint32_t>(below.pMax),
              std::bit_cast<std::uint32_t>(Vec2{big.x * 64, 0.0f}.length()));
    EXPECT_EQ(below.sampleSize, TextureSampler::kMaxAniso);
}

TEST(AnisotropyTest, LodRelationTFvsAF)
{
    // The paper's Section V-C(2): TF's LOD follows the major axis, AF's
    // the minor axis, so lodAF <= lodTF with the gap = log2(N).
    TextureMap tex = makeTex();
    TextureSampler s(tex);
    AnisotropyInfo info = s.computeAnisotropy({8.0f / 64, 0.0f},
                                              {0.0f, 2.0f / 64});
    EXPECT_EQ(info.sampleSize, 4);
    EXPECT_NEAR(info.lodTF, 3.0f, 1e-3f);       // log2(8)
    EXPECT_NEAR(info.lodAF, 1.0f, 1e-3f);       // log2(8/4)
    EXPECT_LE(info.lodAF, info.lodTF);
}

// FilterMode::Bilinear runs a trilinear sample at LOD 0: one level, the
// second footprint weighted zero.
TEST(BilinearTest, TexelCenterReturnsExactTexel)
{
    TextureMap tex = makeTex(8);
    TextureSampler s(tex);
    // Texel (3, 5) center is at uv = ((3+0.5)/8, (5+0.5)/8).
    Color4f c = s.trilinear({3.5f / 8, 5.5f / 8}, 0.0f).color;
    Color4f t = tex.fetchTexel(0, 3, 5);
    EXPECT_NEAR(c.r, t.r, 1e-6f);
    EXPECT_NEAR(c.g, t.g, 1e-6f);
    EXPECT_NEAR(c.b, t.b, 1e-6f);
}

TEST(BilinearTest, MidpointAveragesNeighbors)
{
    TextureMap tex = makeTex(8);
    TextureSampler s(tex);
    // Halfway between texels (2,2) and (3,2).
    Color4f c = s.trilinear({4.0f / 8, 2.5f / 8}, 0.0f).color;
    Color4f expect = (tex.fetchTexel(0, 3, 2) + tex.fetchTexel(0, 4, 2))
        * 0.5f;
    EXPECT_NEAR(c.r, expect.r, 1e-5f);
}

TEST(TrilinearTest, FootprintHasEightTexelsAcrossTwoLevels)
{
    TextureMap tex = makeTex(64);
    TextureSampler s(tex);
    TrilinearSample t = s.trilinear({0.4f, 0.6f}, 1.5f);
    EXPECT_EQ(t.level0, 1);
    EXPECT_EQ(t.level1, 2);
    EXPECT_NEAR(t.frac, 0.5f, 1e-6f);
    int lvl0 = 0, lvl1 = 0;
    for (const TexelRef &ref : t.texels) {
        lvl0 += ref.level == 1;
        lvl1 += ref.level == 2;
    }
    EXPECT_EQ(lvl0, 4);
    EXPECT_EQ(lvl1, 4);
}

TEST(TrilinearTest, WeightsSumToOne)
{
    TextureMap tex = makeTex(64);
    TextureSampler s(tex);
    for (float lod : {0.0f, 0.25f, 1.0f, 2.7f, 5.9f}) {
        TrilinearSample t = s.trilinear({0.13f, 0.77f}, lod);
        float sum = 0.0f;
        for (const TexelRef &ref : t.texels)
            sum += ref.weight;
        EXPECT_NEAR(sum, 1.0f, 1e-5f) << "lod=" << lod;
    }
}

TEST(TrilinearTest, LodClampedAtPyramidEnds)
{
    TextureMap tex = makeTex(16); // levels 0..4
    TextureSampler s(tex);
    TrilinearSample lo = s.trilinear({0.5f, 0.5f}, -2.0f);
    EXPECT_EQ(lo.level0, 0);
    EXPECT_EQ(lo.level1, 0);
    TrilinearSample hi = s.trilinear({0.5f, 0.5f}, 99.0f);
    EXPECT_EQ(hi.level0, 4);
    EXPECT_EQ(hi.level1, 4);
}

TEST(TrilinearTest, IntegerLodBlendsFromSingleLevel)
{
    TextureMap tex = makeTex(64);
    TextureSampler s(tex);
    TrilinearSample t = s.trilinear({0.3f, 0.3f}, 2.0f);
    EXPECT_EQ(t.level0, 2);
    EXPECT_NEAR(t.frac, 0.0f, 1e-6f);
    // Level-1 texels carry zero weight.
    for (int i = 4; i < 8; ++i)
        EXPECT_NEAR(t.texels[i].weight, 0.0f, 1e-6f);
}

TEST(TrilinearTest, ColorMatchesManualWeightedSum)
{
    TextureMap tex = makeTex(32);
    TextureSampler s(tex);
    TrilinearSample t = s.trilinear({0.21f, 0.83f}, 1.3f);
    Color4f acc{0, 0, 0, 0};
    for (const TexelRef &ref : t.texels)
        acc += tex.fetchTexel(ref.level, ref.x, ref.y) * ref.weight;
    EXPECT_NEAR(acc.r, t.color.r, 1e-5f);
    EXPECT_NEAR(acc.g, t.color.g, 1e-5f);
    EXPECT_NEAR(acc.b, t.color.b, 1e-5f);
}

TEST(AnisotropicTest, ProducesNSamples)
{
    TextureMap tex = makeTex(64);
    TextureSampler s(tex);
    AnisotropyInfo info = s.computeAnisotropy({6.0f / 64, 0.0f},
                                              {0.0f, 1.0f / 64});
    ASSERT_EQ(info.sampleSize, 8);
    // One slot past N, marked: exactly the first N samples are written.
    std::vector<TrilinearSample> out(9);
    for (TrilinearSample &ts : out)
        ts.uv = {-7.0f, -7.0f};
    s.filterAnisotropicInto({0.5f, 0.5f}, info, out.data(), nullptr);
    for (int i = 0; i < 8; ++i)
        EXPECT_NE(out[i].uv.x, -7.0f) << "sample " << i;
    EXPECT_EQ(out[8].uv.x, -7.0f);
}

TEST(AnisotropicTest, EqualsTrilinearWhenNIsOne)
{
    // Eq. 3 degenerates to one TF sample at N == 1: the center sample is
    // the pixel center, so AF == TF.
    TextureMap tex = makeTex(64);
    TextureSampler s(tex);
    AnisotropyInfo info = s.computeAnisotropy({1.0f / 64, 0.0f},
                                              {0.0f, 1.0f / 64});
    ASSERT_EQ(info.sampleSize, 1);
    AfPixel af = filterAf(s, {0.37f, 0.58f}, info);
    TrilinearSample tf = s.trilinear({0.37f, 0.58f}, info.lodAF);
    EXPECT_NEAR(af.color.r, tf.color.r, 1e-6f);
    EXPECT_NEAR(af.color.g, tf.color.g, 1e-6f);
}

TEST(AnisotropicTest, SamplesCenteredOnPixel)
{
    TextureMap tex = makeTex(64);
    TextureSampler s(tex);
    AnisotropyInfo info = s.computeAnisotropy({8.0f / 64, 0.0f},
                                              {0.0f, 1.0f / 64});
    AfPixel r = filterAf(s, {0.5f, 0.5f}, info);
    // Mean of sample centers equals the pixel center.
    float mu = 0.0f, mv = 0.0f;
    for (const TrilinearSample &ts : r.samples) {
        mu += ts.uv.x;
        mv += ts.uv.y;
    }
    mu /= r.samples.size();
    mv /= r.samples.size();
    EXPECT_NEAR(mu, 0.5f, 1e-5f);
    EXPECT_NEAR(mv, 0.5f, 1e-5f);
}

TEST(AnisotropicTest, SamplesSpreadAlongMajorAxisOnly)
{
    TextureMap tex = makeTex(64);
    TextureSampler s(tex);
    AnisotropyInfo info = s.computeAnisotropy({8.0f / 64, 0.0f},
                                              {0.0f, 1.0f / 64});
    AfPixel r = filterAf(s, {0.5f, 0.5f}, info);
    for (const TrilinearSample &ts : r.samples)
        EXPECT_NEAR(ts.uv.y, 0.5f, 1e-5f);
    EXPECT_LT(r.samples.front().uv.x, r.samples.back().uv.x);
}

TEST(AnisotropicTest, ColorIsMeanOfSampleColors)
{
    TextureMap tex = makeTex(64);
    TextureSampler s(tex);
    AnisotropyInfo info = s.computeAnisotropy({5.0f / 64, 1.0f / 64},
                                              {0.0f, 1.5f / 64});
    AfPixel r = filterAf(s, {0.31f, 0.62f}, info);
    Color4f acc{0, 0, 0, 0};
    for (const TrilinearSample &ts : r.samples)
        acc += ts.color * (1.0f / r.samples.size());
    EXPECT_NEAR(acc.r, r.color.r, 1e-5f);
    EXPECT_NEAR(acc.b, r.color.b, 1e-5f);
}

TEST(AnisotropicTest, MaxFootprintIs128Texels)
{
    // Section II-B: the max AF level permits 128 texels per pixel, 16x the
    // 8 texels of trilinear.
    TextureMap tex = makeTex(256);
    TextureSampler s(tex);
    AnisotropyInfo info = s.computeAnisotropy({64.0f / 256, 0.0f},
                                              {0.0f, 1.0f / 256}, 16);
    ASSERT_EQ(info.sampleSize, 16);
    AfPixel r = filterAf(s, {0.5f, 0.5f}, info);
    std::size_t texels = 0;
    for (const TrilinearSample &ts : r.samples)
        texels += ts.texels.size();
    EXPECT_EQ(texels, 128u);
}
