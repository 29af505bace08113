/**
 * @file
 * Unit tests for mipmap pyramid construction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/rng.hh"
#include "common/threadpool.hh"
#include "texture/mipmap.hh"

using namespace pargpu;

namespace
{

std::vector<RGBA8>
solid(int w, int h, RGBA8 c)
{
    return std::vector<RGBA8>(static_cast<std::size_t>(w) * h, c);
}

/** A w x h raster of hashed texels: every 2x2 box average differs. */
std::vector<RGBA8>
hashed(int w, int h)
{
    std::vector<RGBA8> out(static_cast<std::size_t>(w) * h);
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::uint32_t v = hashCombine(static_cast<std::uint32_t>(i), 7u, 3u);
        out[i] = {static_cast<std::uint8_t>(v),
                  static_cast<std::uint8_t>(v >> 8),
                  static_cast<std::uint8_t>(v >> 16), 255};
    }
    return out;
}

/** Restores the process-default pool size when a test ends. */
struct DefaultThreadsGuard
{
    ~DefaultThreadsGuard() { ThreadPool::setDefaultThreads(0); }
};

} // namespace

TEST(RowBandTest, BandsCoverEveryRowOnceInWholeTileRows)
{
    DefaultThreadsGuard guard;
    ThreadPool::setDefaultThreads(4);
    const std::pair<int, int> shapes[] = {{512, 512}, {1024, 1024},
                                          {64, 64},   {8192, 2},
                                          {1, 4096},  {2048, 6},
                                          {1500, 100}};
    for (auto [w, h] : shapes) {
        std::mutex mu;
        std::vector<std::pair<int, int>> bands;
        forEachRowBand(w, h, [&](int y0, int y1) {
            std::lock_guard<std::mutex> lk(mu);
            bands.emplace_back(y0, y1);
        });
        std::sort(bands.begin(), bands.end());
        ASSERT_FALSE(bands.empty());
        int next = 0;
        for (const auto &[y0, y1] : bands) {
            EXPECT_EQ(y0, next) << w << "x" << h;
            EXPECT_LT(y0, y1) << w << "x" << h;
            // Every band but the last is whole 4-row Morton tile rows.
            EXPECT_EQ(y0 % 4, 0) << w << "x" << h;
            if (y1 != h) {
                EXPECT_EQ(y1 % 4, 0) << w << "x" << h;
            }
            next = y1;
        }
        EXPECT_EQ(next, h) << w << "x" << h;
    }
}

TEST(MipmapTest, PyramidIndependentOfPoolSizeAndStorage)
{
    DefaultThreadsGuard guard;
    const int w = 512, h = 256;
    ThreadPool::setDefaultThreads(1);
    const std::vector<MipLevel> ref =
        buildMipPyramid(w, h, hashed(w, h), TexelStorage::Linear);
    for (unsigned threads : {1u, 4u}) {
        ThreadPool::setDefaultThreads(threads);
        for (TexelStorage storage :
             {TexelStorage::Linear, TexelStorage::Morton}) {
            const std::vector<MipLevel> got =
                buildMipPyramid(w, h, hashed(w, h), storage);
            ASSERT_EQ(got.size(), ref.size());
            for (std::size_t l = 0; l < ref.size(); ++l) {
                ASSERT_EQ(got[l].width, ref[l].width);
                ASSERT_EQ(got[l].height, ref[l].height);
                for (int y = 0; y < ref[l].height; ++y) {
                    for (int x = 0; x < ref[l].width; ++x) {
                        const RGBA8 &a = ref[l].at(x, y);
                        const RGBA8 &b = got[l].at(x, y);
                        ASSERT_TRUE(a.r == b.r && a.g == b.g &&
                                    a.b == b.b && a.a == b.a)
                            << "level " << l << " (" << x << ", " << y
                            << ") at " << threads << " threads";
                    }
                }
            }
        }
    }
}

TEST(MipmapTest, PowerOfTwoPredicate)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(-4));
    EXPECT_FALSE(isPowerOfTwo(100));
}

TEST(MipmapTest, LevelCountForSquareTexture)
{
    auto levels = buildMipPyramid(16, 16, solid(16, 16, {10, 20, 30, 255}));
    // 16 -> 8 -> 4 -> 2 -> 1: five levels.
    ASSERT_EQ(levels.size(), 5u);
    EXPECT_EQ(levels[0].width, 16);
    EXPECT_EQ(levels[4].width, 1);
    EXPECT_EQ(levels[4].height, 1);
}

TEST(MipmapTest, NonSquarePyramidCollapsesToOneByOne)
{
    auto levels = buildMipPyramid(8, 2, solid(8, 2, {0, 0, 0, 255}));
    // 8x2 -> 4x1 -> 2x1 -> 1x1.
    ASSERT_EQ(levels.size(), 4u);
    EXPECT_EQ(levels[1].width, 4);
    EXPECT_EQ(levels[1].height, 1);
    EXPECT_EQ(levels.back().width, 1);
    EXPECT_EQ(levels.back().height, 1);
}

TEST(MipmapTest, SolidColorIsPreservedAcrossLevels)
{
    RGBA8 c{100, 150, 200, 255};
    auto levels = buildMipPyramid(8, 8, solid(8, 8, c));
    for (const MipLevel &lv : levels) {
        for (const RGBA8 &t : lv.texels) {
            EXPECT_EQ(t.r, c.r);
            EXPECT_EQ(t.g, c.g);
            EXPECT_EQ(t.b, c.b);
        }
    }
}

TEST(MipmapTest, BoxFilterAveragesQuads)
{
    // 2x2 texture with values 0, 80, 160, 240 averages to 120.
    std::vector<RGBA8> base = {
        {0, 0, 0, 255}, {80, 80, 80, 255},
        {160, 160, 160, 255}, {240, 240, 240, 255},
    };
    auto levels = buildMipPyramid(2, 2, base);
    ASSERT_EQ(levels.size(), 2u);
    EXPECT_EQ(levels[1].at(0, 0).r, 120);
}

TEST(MipmapTest, CheckerboardAveragesToGray)
{
    std::vector<RGBA8> base;
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            base.push_back(((x + y) & 1) ? RGBA8{255, 255, 255, 255}
                                         : RGBA8{0, 0, 0, 255});
    auto levels = buildMipPyramid(4, 4, base);
    // Every 2x2 quad holds two black and two white texels.
    for (const RGBA8 &t : levels[1].texels)
        EXPECT_NEAR(t.r, 128, 1);
}

TEST(MipmapDeathTest, RejectsNonPowerOfTwo)
{
    EXPECT_EXIT(buildMipPyramid(6, 4, solid(6, 4, {})),
                testing::ExitedWithCode(1), "powers of two");
}

TEST(MipmapDeathTest, RejectsWrongTexelCount)
{
    EXPECT_EXIT(buildMipPyramid(4, 4, solid(2, 2, {})),
                testing::ExitedWithCode(1), "does not match");
}
