/**
 * @file
 * Unit tests for texture maps and texel addressing.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>

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
            t.push_back({static_cast<std::uint8_t>(x * 8),
                         static_cast<std::uint8_t>(y * 8), 0, 255});
    return t;
}

} // namespace

TEST(TextureMapTest, SizeCoversAllLevels)
{
    TextureMap tex(8, 8, ramp(8, 8));
    // 8x8 + 4x4 + 2x2 + 1x1 texels, 4 bytes each.
    EXPECT_EQ(tex.sizeBytes(), (64u + 16 + 4 + 1) * 4);
    EXPECT_EQ(tex.numLevels(), 4);
}

TEST(TextureMapTest, WrapRepeatWrapsNegativeAndOverflow)
{
    EXPECT_EQ(TextureMap::wrapCoord(-1, 8, WrapMode::Repeat), 7);
    EXPECT_EQ(TextureMap::wrapCoord(8, 8, WrapMode::Repeat), 0);
    EXPECT_EQ(TextureMap::wrapCoord(17, 8, WrapMode::Repeat), 1);
    EXPECT_EQ(TextureMap::wrapCoord(-9, 8, WrapMode::Repeat), 7);
}

TEST(TextureMapTest, WrapClampClampsToEdges)
{
    EXPECT_EQ(TextureMap::wrapCoord(-5, 8, WrapMode::ClampToEdge), 0);
    EXPECT_EQ(TextureMap::wrapCoord(3, 8, WrapMode::ClampToEdge), 3);
    EXPECT_EQ(TextureMap::wrapCoord(12, 8, WrapMode::ClampToEdge), 7);
}

TEST(TextureMapTest, AddressesAreUniquePerTexelWithinLevel)
{
    TextureMap tex(16, 16, ramp(16, 16));
    std::set<Addr> addrs;
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            addrs.insert(tex.texelAddr(0, x, y));
    EXPECT_EQ(addrs.size(), 256u);
}

TEST(TextureMapTest, LevelsOccupyDisjointAddressRanges)
{
    TextureMap tex(8, 8, ramp(8, 8));
    std::set<Addr> addrs;
    for (int l = 0; l < tex.numLevels(); ++l) {
        const MipLevel &lv = tex.level(l);
        for (int y = 0; y < lv.height; ++y)
            for (int x = 0; x < lv.width; ++x)
                addrs.insert(tex.texelAddr(l, x, y));
    }
    EXPECT_EQ(addrs.size(), 64u + 16 + 4 + 1);
}

TEST(TextureMapTest, BaseAddressOffsetsAllTexels)
{
    TextureMap tex(4, 4, ramp(4, 4));
    Addr before = tex.texelAddr(0, 2, 2);
    tex.setBaseAddr(0x1000);
    EXPECT_EQ(tex.texelAddr(0, 2, 2), before + 0x1000);
}

TEST(TextureMapTest, WrappedCoordsAliasSameAddress)
{
    TextureMap tex(8, 8, ramp(8, 8), WrapMode::Repeat);
    EXPECT_EQ(tex.texelAddr(0, -1, 3), tex.texelAddr(0, 7, 3));
    EXPECT_EQ(tex.texelAddr(0, 8, 0), tex.texelAddr(0, 0, 0));
}

TEST(TextureMapTest, TiledLayoutKeepsTileInOneBlock)
{
    TextureMap tex(16, 16, ramp(16, 16), WrapMode::Repeat,
                   TexelLayout::Tiled4x4);
    // All 16 texels of the 4x4 tile at origin must land within one
    // 64-byte block.
    Addr lo = ~Addr{0}, hi = 0;
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
            Addr a = tex.texelAddr(0, x, y);
            lo = std::min(lo, a);
            hi = std::max(hi, a);
        }
    }
    EXPECT_EQ(hi - lo, 60u); // 16 texels * 4 B: contiguous.
}

TEST(TextureMapTest, LinearLayoutIsRowMajor)
{
    TextureMap tex(8, 8, ramp(8, 8), WrapMode::Repeat,
                   TexelLayout::Linear);
    EXPECT_EQ(tex.texelAddr(0, 1, 0) - tex.texelAddr(0, 0, 0), 4u);
    EXPECT_EQ(tex.texelAddr(0, 0, 1) - tex.texelAddr(0, 0, 0), 32u);
}

TEST(TextureMapTest, FetchTexelAppliesWrap)
{
    TextureMap tex(4, 4, ramp(4, 4), WrapMode::Repeat);
    Color4f direct = tex.fetchTexel(0, 1, 2);
    Color4f wrapped = tex.fetchTexel(0, 5, -2);
    EXPECT_FLOAT_EQ(direct.r, wrapped.r);
    EXPECT_FLOAT_EQ(direct.g, wrapped.g);
}

namespace
{

/** Every texel distinct in at least one channel (up to 64x64). */
std::vector<RGBA8>
distinctTexels(int w, int h)
{
    std::vector<RGBA8> t;
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            t.push_back({static_cast<std::uint8_t>(x * 4 + 1),
                         static_cast<std::uint8_t>(y * 4 + 2),
                         static_cast<std::uint8_t>((x * 37 + y * 101) & 255),
                         static_cast<std::uint8_t>(255 - ((x + y) & 63))});
    return t;
}

bool
sameBits(const Color4f &a, const Color4f &b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

// fetchFootprint() serves every RGBA8 footprint inline — inside a 4x4
// Morton tile, across tile edges, wrapped and clamped — and BC1 out of
// line. At every corner of every level of small textures (down to the
// 1- and 2-texel-wide levels, where host storage falls back to
// row-major) it must return exactly four fetchTexel()/texelAddr()
// calls, and its address-only and color-only halves must agree.
TEST(TextureMapTest, FootprintEqualsFourTexelFetchesAtEveryCorner)
{
    struct Case
    {
        int w, h;
        WrapMode wrap;
        TexelLayout layout;
        StorageFormat format;
    };
    const Case cases[] = {
        {16, 16, WrapMode::Repeat, TexelLayout::Tiled4x4,
         StorageFormat::RGBA8},
        {16, 16, WrapMode::ClampToEdge, TexelLayout::Tiled4x4,
         StorageFormat::RGBA8},
        {16, 4, WrapMode::Repeat, TexelLayout::Tiled4x4,
         StorageFormat::RGBA8},
        {4, 16, WrapMode::ClampToEdge, TexelLayout::Tiled4x4,
         StorageFormat::RGBA8},
        {8, 2, WrapMode::Repeat, TexelLayout::Linear, StorageFormat::RGBA8},
        {16, 8, WrapMode::Repeat, TexelLayout::Linear, StorageFormat::RGBA8},
        {16, 8, WrapMode::ClampToEdge, TexelLayout::Tiled4x4,
         StorageFormat::RGBA8},
        {16, 16, WrapMode::Repeat, TexelLayout::Tiled4x4, StorageFormat::BC1},
        {8, 4, WrapMode::ClampToEdge, TexelLayout::Tiled4x4,
         StorageFormat::BC1},
    };
    const int dx[4] = {0, 1, 0, 1};
    const int dy[4] = {0, 0, 1, 1};
    int crossings = 0;
    for (const Case &c : cases) {
        TextureMap tex(c.w, c.h, distinctTexels(c.w, c.h), c.wrap, c.layout,
                       c.format);
        // Host storage follows the format.
        EXPECT_EQ(tex.storage(), c.format == StorageFormat::BC1
                                     ? TexelStorage::Linear
                                     : TexelStorage::Morton);
        tex.setBaseAddr(0x10'0000);
        for (int l = 0; l < tex.numLevels(); ++l) {
            const int lw = tex.level(l).width, lh = tex.level(l).height;
            for (int y0 = -2; y0 <= lh; ++y0)
                for (int x0 = -2; x0 <= lw; ++x0) {
                    SCOPED_TRACE(testing::Message()
                                 << c.w << "x" << c.h << " level " << l
                                 << " corner (" << x0 << ", " << y0 << ")");
                    Color4f color[4], color_only[4];
                    Addr addr[4], addr_only[4];
                    tex.fetchFootprint(l, x0, y0, color, addr);
                    tex.fetchFootprintAddrs(l, x0, y0, addr_only);
                    tex.fetchFootprintColors(l, x0, y0, color_only);
                    for (int i = 0; i < 4; ++i) {
                        const int x = x0 + dx[i], y = y0 + dy[i];
                        EXPECT_EQ(addr[i], tex.texelAddr(l, x, y)) << i;
                        EXPECT_EQ(addr_only[i], addr[i]) << i;
                        EXPECT_TRUE(sameBits(color[i],
                                             tex.fetchTexel(l, x, y)))
                            << i;
                        EXPECT_TRUE(sameBits(color_only[i], color[i])) << i;
                    }
                    if (lw >= 4 && lh >= 4 &&
                        ((x0 & 3) == 3 || (y0 & 3) == 3))
                        ++crossings;
                }
        }
    }
    EXPECT_GT(crossings, 0); // Tile-crossing corners were covered.
}
