/**
 * @file
 * Unit tests for procedural texture generation.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>

#include "common/threadpool.hh"
#include "texture/procedural.hh"

using namespace pargpu;

namespace
{

double
meanLuma(const std::vector<RGBA8> &texels)
{
    double acc = 0.0;
    for (const RGBA8 &t : texels)
        acc += unpackRGBA8(t).luma();
    return acc / static_cast<double>(texels.size());
}

double
lumaVariance(const std::vector<RGBA8> &texels)
{
    double mean = meanLuma(texels);
    double acc = 0.0;
    for (const RGBA8 &t : texels) {
        double d = unpackRGBA8(t).luma() - mean;
        acc += d * d;
    }
    return acc / static_cast<double>(texels.size());
}

constexpr TextureKind kAllKinds[] = {
    TextureKind::Checker, TextureKind::Bricks, TextureKind::Noise,
    TextureKind::Grass,   TextureKind::Marble, TextureKind::Wood,
    TextureKind::Stripes, TextureKind::Panels,
};

/**
 * FNV-1a over every texel byte of generateTexture(@p kind, size, seed)
 * for each size, then each seed. The sizes run from one texel, below the
 * coarsest noise lattice (8 cells), to 512, above the finest (128).
 */
std::uint64_t
kindDigest(TextureKind kind)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int size : {1, 2, 8, 64, 512}) {
        for (std::uint32_t seed : {3u, 0x9E3779B9u}) {
            for (const RGBA8 &t : generateTexture(kind, size, seed)) {
                for (std::uint8_t b : {t.r, t.g, t.b, t.a}) {
                    h ^= b;
                    h *= 0x100000001b3ull;
                }
            }
        }
    }
    return h;
}

/**
 * kindDigest() of each kind, in kAllKinds order. Pinned from a generator
 * that evaluated fractalNoise() at every texel, which the noise tables
 * must reproduce bit for bit.
 */
constexpr std::uint64_t kKindDigests[] = {
    0xc9753ba2219174d6ull, 0xa56c61a891262d34ull, 0x1e011da5d112ded3ull,
    0x045c94dbbc46ca62ull, 0x2d8b56a9e93bbaf9ull, 0xf528eb051914c627ull,
    0x751b83df4cd4d672ull, 0x2cab0cf7cf490f9aull,
};
static_assert(std::size(kKindDigests) == std::size(kAllKinds));

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxull",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Restores the process-default pool size when a test ends. */
struct DefaultThreadsGuard
{
    ~DefaultThreadsGuard() { ThreadPool::setDefaultThreads(0); }
};

} // namespace

class ProceduralKindTest : public testing::TestWithParam<TextureKind>
{
};

TEST_P(ProceduralKindTest, ProducesCorrectTexelCount)
{
    auto texels = generateTexture(GetParam(), 64, 5);
    EXPECT_EQ(texels.size(), 64u * 64u);
}

TEST_P(ProceduralKindTest, DeterministicForSameSeed)
{
    auto a = generateTexture(GetParam(), 32, 99);
    auto b = generateTexture(GetParam(), 32, 99);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].r, b[i].r);
        EXPECT_EQ(a[i].g, b[i].g);
        EXPECT_EQ(a[i].b, b[i].b);
    }
}

TEST_P(ProceduralKindTest, SeedChangesContent)
{
    auto a = generateTexture(GetParam(), 32, 1);
    auto b = generateTexture(GetParam(), 32, 2);
    int diff = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        diff += a[i].r != b[i].r || a[i].g != b[i].g;
    EXPECT_GT(diff, 0);
}

TEST_P(ProceduralKindTest, HasSpatialDetail)
{
    // Every texture family must carry high-frequency content; a flat
    // texture would make AF vs TF differences invisible.
    auto texels = generateTexture(GetParam(), 64, 3);
    EXPECT_GT(lumaVariance(texels), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ProceduralKindTest,
                         testing::ValuesIn(kAllKinds));

TEST(ProceduralDigestTest, TexelsMatchFrozenDigestsAtEveryPoolSize)
{
    // Row bands split the texel loop across the pool; every split must
    // give the texels of the one-thread loop.
    DefaultThreadsGuard guard;
    for (unsigned threads : {1u, 3u, 4u}) {
        ThreadPool::setDefaultThreads(threads);
        for (std::size_t k = 0; k < std::size(kAllKinds); ++k) {
            const std::uint64_t h = kindDigest(kAllKinds[k]);
            EXPECT_EQ(h, kKindDigests[k])
                << "kind " << k << " at " << threads
                << " threads: new digest " << hex(h);
        }
    }
}

TEST(FractalNoiseTest, StaysInUnitRange)
{
    for (int i = 0; i < 1000; ++i) {
        float u = (i % 37) / 37.0f;
        float v = (i % 11) / 11.0f;
        float n = fractalNoise(u, v, 5, 42);
        EXPECT_GE(n, 0.0f);
        EXPECT_LE(n, 1.0f);
    }
}

TEST(FractalNoiseTest, MoreOctavesAddDetail)
{
    // Sampling a fine grid, the 5-octave field should differ from the
    // 1-octave field at many points.
    int diffs = 0;
    for (int i = 0; i < 64; ++i) {
        float u = i / 64.0f;
        float a = fractalNoise(u, u, 1, 7);
        float b = fractalNoise(u, u, 5, 7);
        diffs += std::abs(a - b) > 1e-3f;
    }
    EXPECT_GT(diffs, 32);
}

TEST(FractalNoiseTest, MaskWrapMatchesFlooredModulo)
{
    // Value noise wraps lattice coordinates with a mask. For the
    // power-of-two periods it uses (8 << octave) that must equal the
    // floored modulo it replaced: % plus a sign fix.
    auto floored = [](int c, int cells) {
        int m = c % cells;
        return m < 0 ? m + cells : m;
    };
    for (int cells = 8; cells <= (8 << 8); cells *= 2) {
        for (int c = -3 * cells - 1; c <= 3 * cells + 1; ++c)
            EXPECT_EQ(wrapLattice(c, cells), floored(c, cells))
                << c << " mod " << cells;
        for (int c : {INT_MIN, INT_MIN + 1, INT_MAX - 1, INT_MAX})
            EXPECT_EQ(wrapLattice(c, cells), floored(c, cells))
                << c << " mod " << cells;
    }
}

TEST(FractalNoiseTest, PeriodicAcrossNegativeCoordinates)
{
    // Dyadic (u, v) shift by whole periods exactly, so noise sampled at
    // negative lattice coordinates must equal noise one period over.
    for (int i = 0; i < 64; ++i) {
        float u = i / 64.0f;
        float v = (i * 7 % 64) / 64.0f;
        EXPECT_EQ(fractalNoise(u - 1.0f, v - 2.0f, 5, 9),
                  fractalNoise(u, v, 5, 9))
            << u << ", " << v;
    }
}

TEST(ProceduralTest, CheckerIsHighContrast)
{
    auto texels = generateTexture(TextureKind::Checker, 64, 1);
    EXPECT_GT(lumaVariance(texels), 0.1);
}

TEST(ProceduralTest, PanelsAreDarkerThanChecker)
{
    // Doom3-style panels read darker than a checkerboard; this relative
    // ordering drives the per-game perception differences.
    auto panels = generateTexture(TextureKind::Panels, 64, 1);
    auto checker = generateTexture(TextureKind::Checker, 64, 1);
    EXPECT_LT(meanLuma(panels), meanLuma(checker));
}
