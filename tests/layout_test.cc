/**
 * @file
 * Layout-equivalence guarantee of the texel hot path: the Morton host
 * storage of RGBA8 textures only reorders the host array. Every fetch
 * must return the texel of the row-major source raster (and of its
 * row-major mip pyramid), and simulated texel addresses come from
 * TexelLayout, which is part of the modeled machine. The golden digests
 * (golden_test) pin the rendered frames and counters.
 */

#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "texture/mipmap.hh"
#include "texture/texture.hh"

using namespace pargpu;

namespace
{

std::vector<RGBA8>
ramp(int w, int h)
{
    std::vector<RGBA8> t;
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            t.push_back({static_cast<std::uint8_t>((x * 13 + y) & 0xff),
                         static_cast<std::uint8_t>((y * 7 + x) & 0xff),
                         static_cast<std::uint8_t>((x ^ y) & 0xff), 255});
    return t;
}

} // namespace

TEST(MortonLayoutTest, IndexIsAPermutation)
{
    MipLevel lv;
    lv.width = 8;
    lv.height = 8;
    lv.storage = TexelStorage::Morton;
    std::set<std::size_t> seen;
    for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x)
            seen.insert(lv.index(x, y));
    EXPECT_EQ(seen.size(), 64u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 63u);
}

TEST(MortonLayoutTest, InTileOrderInterleavesBits)
{
    // Z-order within a 4x4 tile: index = x0 y0 x1 y1 bit-interleaved.
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x) {
            int expect = (x & 1) | ((y & 1) << 1) | ((x & 2) << 1) |
                ((y & 2) << 2);
            EXPECT_EQ(kMortonInTile4x4[(y << 2) | x], expect)
                << "x=" << x << " y=" << y;
        }
}

TEST(MortonLayoutTest, SubTileLevelsFallBackToRowMajor)
{
    MipLevel lv;
    lv.width = 2;
    lv.height = 2;
    lv.storage = TexelStorage::Morton;
    EXPECT_EQ(lv.index(0, 0), 0u);
    EXPECT_EQ(lv.index(1, 0), 1u);
    EXPECT_EQ(lv.index(0, 1), 2u);
    EXPECT_EQ(lv.index(1, 1), 3u);
}

TEST(MortonLayoutTest, TileContiguousInHostMemory)
{
    // All 16 texels of a 4x4 tile land in one contiguous 16-entry span.
    MipLevel lv;
    lv.width = 16;
    lv.height = 16;
    lv.storage = TexelStorage::Morton;
    for (int ty = 0; ty < 4; ++ty)
        for (int tx = 0; tx < 4; ++tx) {
            std::size_t lo = lv.index(tx * 4, ty * 4);
            for (int y = 0; y < 4; ++y)
                for (int x = 0; x < 4; ++x) {
                    std::size_t i = lv.index(tx * 4 + x, ty * 4 + y);
                    EXPECT_GE(i, lo);
                    EXPECT_LT(i, lo + 16);
                }
        }
}

TEST(LayoutEquivalenceTest, FetchesMatchTheRowMajorSource)
{
    const int w = 32, h = 16;
    TextureMap mor(w, h, ramp(w, h), WrapMode::Repeat, TexelLayout::Tiled4x4,
                   StorageFormat::RGBA8);
    ASSERT_EQ(mor.storage(), TexelStorage::Morton);
    // The row-major reference: the source raster at level 0 and the same
    // box-filtered pyramid, kept row-major, below it.
    const std::vector<MipLevel> ref = buildMipPyramid(w, h, ramp(w, h));
    ASSERT_EQ(static_cast<int>(ref.size()), mor.numLevels());
    const std::vector<RGBA8> src = ramp(w, h);
    ASSERT_EQ(std::memcmp(ref[0].texels.data(), src.data(),
                          src.size() * sizeof(RGBA8)),
              0);
    for (int l = 0; l < mor.numLevels(); ++l) {
        const int lw = ref[l].width, lh = ref[l].height;
        // Out-of-range coordinates included: wrapping must agree too.
        for (int y = -2; y < lh + 2; ++y)
            for (int x = -2; x < lw + 2; ++x) {
                const int wx = TextureMap::wrapCoord(x, lw, WrapMode::Repeat);
                const int wy = TextureMap::wrapCoord(y, lh, WrapMode::Repeat);
                EXPECT_EQ(mor.texelAddr(l, x, y), mor.texelAddr(l, wx, wy));
                const Color4f a = mor.fetchTexel(l, x, y);
                const Color4f b = unpackRGBA8(
                    ref[l].texels[static_cast<std::size_t>(wy) * lw + wx]);
                EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0);
            }
    }
}

TEST(LayoutEquivalenceTest, FootprintMatchesScalarFetches)
{
    const int w = 16, h = 16;
    TextureMap tex(w, h, ramp(w, h), WrapMode::Repeat, TexelLayout::Tiled4x4,
                   StorageFormat::RGBA8);
    for (int l = 0; l < tex.numLevels(); ++l) {
        const int lw = tex.level(l).width, lh = tex.level(l).height;
        for (int y0 = -1; y0 < lh; ++y0)
            for (int x0 = -1; x0 < lw; ++x0) {
                Color4f color[4];
                Addr addr[4];
                tex.fetchFootprint(l, x0, y0, color, addr);
                const int dx[4] = {0, 1, 0, 1};
                const int dy[4] = {0, 0, 1, 1};
                for (int i = 0; i < 4; ++i) {
                    Color4f want = tex.fetchTexel(l, x0 + dx[i], y0 + dy[i]);
                    EXPECT_EQ(addr[i], tex.texelAddr(l, x0 + dx[i],
                                                     y0 + dy[i]));
                    EXPECT_EQ(std::memcmp(&color[i], &want, sizeof want), 0);
                }
            }
    }
}
