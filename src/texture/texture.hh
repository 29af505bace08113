/**
 * @file
 * Texture maps with full mipmap pyramids and hardware texel addressing.
 *
 * Texels are packed RGBA8 (4 bytes). Each texture occupies a contiguous
 * region of the simulated GPU address space; texelAddr() reproduces the
 * address a hardware texel-address calculator would emit, which is what the
 * texture caches and PATU's texel-address hash table consume.
 *
 * Two layout notions are deliberately separate:
 *  - TexelLayout is the *simulated* address layout: it decides which
 *    addresses the hardware would emit and therefore shapes cache behavior
 *    and PATU's hash-table contents. It is part of the modeled machine.
 *  - TexelStorage is the *host-side* storage order of MipLevel::texels: it
 *    only affects how fast this process can fetch texel colors. It
 *    follows the format: RGBA8 textures use Morton storage, which keeps a
 *    4x4 tile (one 64-byte simulated cache line) contiguous in host
 *    memory so a 2x2 bilinear footprint lands in one or two host cache
 *    lines; BC1 keeps its row-major compression input.
 */

#ifndef PARGPU_TEXTURE_TEXTURE_HH
#define PARGPU_TEXTURE_TEXTURE_HH

#include <cstdint>
#include <vector>

#include "common/color.hh"
#include "common/contract.hh"
#include "common/types.hh"
#include "texture/compress.hh"

namespace pargpu
{

/** Texture coordinate wrap mode. */
enum class WrapMode
{
    Repeat,      ///< Fractional repeat (floors/walls tiling).
    ClampToEdge, ///< Clamp texel coordinates to the level border.
};

/** Simulated texel-address layout within a mip level. */
enum class TexelLayout
{
    Linear,   ///< Row-major.
    Tiled4x4, ///< 4x4 texel tiles, row-major tiles (GPU-typical locality).
};

/** Host-side storage order of a mip level's texel array. */
enum class TexelStorage
{
    Linear, ///< Row-major (the seed layout).
    Morton, ///< 4x4 tiles, Z-order within each tile, tiles row-major.
};

/** On-memory storage format of the texture data. */
enum class StorageFormat
{
    RGBA8, ///< Uncompressed 4 bytes/texel.
    BC1,   ///< Block-compressed, 8 bytes per 4x4 block (8:1).
};

/**
 * Z-order of texel (x, y) within a 4x4 tile: bits of x and y interleaved
 * x0 y0 x1 y1 (x least significant). Indexed by (y << 2) | x.
 */
inline constexpr std::uint8_t kMortonInTile4x4[16] = {
    0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15,
};

/**
 * kMortonInTile4x4 split by axis: the interleave is a sum of an x term
 * and a y term, kMortonInTile4x4[(y << 2) | x] == kMortonX4[x] +
 * kMortonY4[y]. Lets a footprint's four host indices share two column
 * and two row computations.
 */
inline constexpr std::uint8_t kMortonX4[4] = {0, 1, 4, 5};
inline constexpr std::uint8_t kMortonY4[4] = {0, 2, 8, 10};
static_assert(
    [] {
        for (int y = 0; y < 4; ++y)
            for (int x = 0; x < 4; ++x)
                if (kMortonInTile4x4[(y << 2) | x] !=
                    kMortonX4[x] + kMortonY4[y])
                    return false;
        return true;
    }(),
    "the 4x4 Morton order must be separable by axis");

/** One mip level: a levelWidth x levelHeight raster of RGBA8 texels. */
struct MipLevel
{
    int width = 0;
    int height = 0;
    std::vector<RGBA8> texels; ///< Order given by storage.
    TexelStorage storage = TexelStorage::Linear;

    /** Host array index of texel (x, y) under the storage order. */
    std::size_t
    index(int x, int y) const
    {
        if (storage == TexelStorage::Morton && width >= 4 && height >= 4) {
            // Levels narrower than a tile in either dimension fall back to
            // row-major (a tile would not be full).
            std::size_t tile = static_cast<std::size_t>(y >> 2) *
                    static_cast<std::size_t>(width >> 2) +
                static_cast<std::size_t>(x >> 2);
            return tile * 16 + kMortonInTile4x4[((y & 3) << 2) | (x & 3)];
        }
        return static_cast<std::size_t>(y) * width + x;
    }

    const RGBA8 &
    at(int x, int y) const
    {
        return texels[index(x, y)];
    }

    RGBA8 &
    at(int x, int y)
    {
        return texels[index(x, y)];
    }
};

/**
 * A 2D mipmapped texture bound into the simulated GPU address space.
 *
 * The pyramid always extends down to 1x1. Level 0 dimensions must be powers
 * of two (as required by the tiling-friendly address math).
 */
class TextureMap
{
  public:
    /**
     * Build a texture from level-0 texels; generates the mip pyramid with a
     * 2x2 box filter.
     *
     * @param width   Level-0 width (power of two).
     * @param height  Level-0 height (power of two).
     * @param texels  Row-major level-0 texels (width * height entries).
     * @param wrap    Coordinate wrap mode.
     * @param layout  Simulated memory layout for texel addresses.
     * @param format  Simulated storage format. It also picks the host
     *                storage: Morton for RGBA8, Linear for BC1 (the
     *                raster is only kept as compression input).
     */
    TextureMap(int width, int height, std::vector<RGBA8> texels,
               WrapMode wrap = WrapMode::Repeat,
               TexelLayout layout = TexelLayout::Tiled4x4,
               StorageFormat format = StorageFormat::RGBA8);

    int width() const { return levels_.front().width; }
    int height() const { return levels_.front().height; }
    int numLevels() const { return static_cast<int>(levels_.size()); }
    WrapMode wrap() const { return wrap_; }
    TexelLayout layout() const { return layout_; }
    StorageFormat format() const { return format_; }
    TexelStorage storage() const { return storage_; }

    const MipLevel &level(int l) const { return levels_[l]; }

    /** Total bytes the texture occupies (all levels). */
    Bytes sizeBytes() const { return sizeBytes_; }

    /** Base address in the simulated GPU address space. */
    Addr baseAddr() const { return baseAddr_; }

    /** Bind the texture at @p base in the GPU address space. */
    void setBaseAddr(Addr base) { baseAddr_ = base; }

    /**
     * Wrap a texel coordinate into [0, extent) per the wrap mode.
     * @param c       Possibly out-of-range texel coordinate.
     * @param extent  Level width or height (power of two).
     */
    static int wrapCoord(int c, int extent, WrapMode mode);

    /**
     * Address of texel (x, y) at mip level @p level, after wrapping.
     * Reproduces the hardware address calculation including tiling.
     */
    Addr texelAddr(int level, int x, int y) const;

    /** Fetch a texel color (functional path) with wrapping applied. */
    Color4f fetchTexel(int level, int x, int y) const;

    /**
     * Fetch the 2x2 bilinear footprint with corner (x0, y0) at @p level:
     * colors and simulated addresses of (x0, y0), (x0+1, y0), (x0, y0+1),
     * (x0+1, y0+1) — the slot order trilinear filtering consumes. Wraps
     * each coordinate once instead of once per texel; colors and addresses
     * are exactly those of fetchTexel()/texelAddr().
     */
    void fetchFootprint(int level, int x0, int y0, Color4f color[4],
                        Addr addr[4]) const;

    /** The addresses of fetchFootprint() alone. */
    void fetchFootprintAddrs(int level, int x0, int y0, Addr addr[4]) const;

    /** The colors of fetchFootprint() alone. */
    void fetchFootprintColors(int level, int x0, int y0,
                              Color4f color[4]) const;

  private:
    /** Precomputed per-level address math (all extents are powers of two). */
    struct LevelGeom
    {
        int wmask = 0;              ///< width - 1 (wrap mask / clamp max).
        int hmask = 0;              ///< height - 1.
        std::uint32_t row_shift = 0;///< log2(width), linear addressing.
        std::uint32_t tpr_shift = 0;///< log2(width / 4), tiled addressing.
        std::uint32_t blk_shift = 0;///< log2(BC1 blocks per row).
        bool tiled = false;         ///< Tiled4x4 applies at this level.
        bool morton = false;        ///< Host texels are in Morton order.
        Bytes offset = 0;           ///< Byte offset of the level.
    };

    /** fetchFootprintColors() for BC1 textures (decodes four texels). */
    void bc1FootprintColors(int level, const int wx[2], const int wy[2],
                            Color4f color[4]) const;

    /** Wrap a coordinate with the precomputed mask (Repeat) or clamp. */
    int
    wrapFast(int c, int mask) const
    {
        if (wrap_ == WrapMode::Repeat)
            return c & mask; // Power-of-two extent: equals mod semantics.
        return c < 0 ? 0 : (c > mask ? mask : c);
    }

    // Every layout's texel offset is a column term plus a row term:
    // texelOffset(g, wx, wy) == g.offset + colOffset(g, wx) +
    // rowOffset(g, wy). A footprint's four addresses therefore cost two
    // of each, whether or not it crosses a tile or wraps.

    /** Column term of texelOffset() for wrapped column @p wx. */
    Bytes
    colOffset(const LevelGeom &g, int wx) const
    {
        if (format_ == StorageFormat::BC1) {
            // Compressed storage is addressed at block granularity: all
            // 16 texels of a 4x4 block live in one 8-byte record.
            return static_cast<Bytes>(wx >> 2) * Bc1Block::kBytes;
        }
        // 4x4 texel tiles, tiles stored row-major; texels within a tile
        // stored row-major. Matches the block layouts real texture units
        // use to keep a bilinear footprint in one or two cache lines.
        const Bytes t = g.tiled
            ? (static_cast<Bytes>(wx >> 2) << 4) + static_cast<Bytes>(wx & 3)
            : static_cast<Bytes>(wx);
        return t * RGBA8::kBytes;
    }

    /** Row term of texelOffset() for wrapped row @p wy. */
    Bytes
    rowOffset(const LevelGeom &g, int wy) const
    {
        if (format_ == StorageFormat::BC1)
            return (static_cast<Bytes>(wy >> 2) << g.blk_shift) *
                Bc1Block::kBytes;
        const Bytes t = g.tiled
            ? (static_cast<Bytes>(wy >> 2) << (g.tpr_shift + 4)) +
                (static_cast<Bytes>(wy & 3) << 2)
            : static_cast<Bytes>(wy) << g.row_shift;
        return t * RGBA8::kBytes;
    }

    /** Level-relative byte offset of wrapped texel (wx, wy). */
    Bytes
    texelOffset(const LevelGeom &g, int wx, int wy) const
    {
        return g.offset + colOffset(g, wx) + rowOffset(g, wy);
    }

    // MipLevel::index() split the same way for RGBA8 host storage.

    /** Column term of the host index of wrapped column @p wx. */
    static std::size_t
    colIndex(const LevelGeom &g, int wx)
    {
        return g.morton ? (static_cast<std::size_t>(wx >> 2) << 4) +
                kMortonX4[wx & 3]
                        : static_cast<std::size_t>(wx);
    }

    /** Row term of the host index of wrapped row @p wy. */
    static std::size_t
    rowIndex(const LevelGeom &g, int wy)
    {
        // A Morton tile row holds width / 4 tiles of 16 texels.
        return g.morton ? (static_cast<std::size_t>(wy >> 2)
                           << (g.row_shift + 2)) +
                kMortonY4[wy & 3]
                        : static_cast<std::size_t>(wy) << g.row_shift;
    }

    /** fetchFootprintAddrs() on wrapped columns @p wx and rows @p wy. */
    void
    footprintAddrs(const LevelGeom &g, const int wx[2], const int wy[2],
                   Addr addr[4]) const
    {
        const Addr c0 = baseAddr_ + g.offset + colOffset(g, wx[0]);
        const Addr c1 = baseAddr_ + g.offset + colOffset(g, wx[1]);
        const Bytes r0 = rowOffset(g, wy[0]);
        const Bytes r1 = rowOffset(g, wy[1]);
        addr[0] = c0 + r0;
        addr[1] = c1 + r0;
        addr[2] = c0 + r1;
        addr[3] = c1 + r1;
    }

    /** fetchFootprintColors() on wrapped columns @p wx and rows @p wy. */
    void
    footprintColors(int level, const LevelGeom &g, const int wx[2],
                    const int wy[2], Color4f color[4]) const
    {
        if (format_ != StorageFormat::RGBA8) {
            bc1FootprintColors(level, wx, wy, color);
            return;
        }
        // Inline for every RGBA8 footprint — inside one Morton tile,
        // across tile edges, wrapped or clamped — so the filter's gather
        // loop folds it in.
        const RGBA8 *texels =
            levels_[static_cast<std::size_t>(level)].texels.data();
        const std::size_t c0 = colIndex(g, wx[0]);
        const std::size_t c1 = colIndex(g, wx[1]);
        const std::size_t r0 = rowIndex(g, wy[0]);
        const std::size_t r1 = rowIndex(g, wy[1]);
        color[0] = unpackRGBA8(texels[r0 + c0]);
        color[1] = unpackRGBA8(texels[r0 + c1]);
        color[2] = unpackRGBA8(texels[r1 + c0]);
        color[3] = unpackRGBA8(texels[r1 + c1]);
    }

    /** Color of wrapped texel (wx, wy) — fetchTexel after wrapping. */
    Color4f texelColor(int level, const MipLevel &lv, int wx, int wy) const;

    std::vector<MipLevel> levels_;
    std::vector<LevelGeom> geom_;    ///< Per-level address precomputation.
    std::vector<Bytes> levelOffset_; ///< Byte offset of each level.
    /** Compressed blocks per level (BC1 format only). */
    std::vector<std::vector<Bc1Block>> bc1_levels_;
    WrapMode wrap_;
    TexelLayout layout_;
    StorageFormat format_;
    TexelStorage storage_;
    Addr baseAddr_ = 0;
    Bytes sizeBytes_ = 0;
};

inline void
TextureMap::fetchFootprint(int level, int x0, int y0, Color4f color[4],
                           Addr addr[4]) const
{
    PARGPU_CHECK_RANGE(level, 0, numLevels() - 1, "fetchFootprint level");
    const LevelGeom &g = geom_[static_cast<std::size_t>(level)];
    // Wrap the two columns and two rows once; the four texels are every
    // (column, row) combination in the trilinear slot order.
    const int wx[2] = {wrapFast(x0, g.wmask), wrapFast(x0 + 1, g.wmask)};
    const int wy[2] = {wrapFast(y0, g.hmask), wrapFast(y0 + 1, g.hmask)};
    footprintAddrs(g, wx, wy, addr);
    footprintColors(level, g, wx, wy, color);
}

inline void
TextureMap::fetchFootprintAddrs(int level, int x0, int y0,
                                Addr addr[4]) const
{
    PARGPU_CHECK_RANGE(level, 0, numLevels() - 1, "fetchFootprint level");
    const LevelGeom &g = geom_[static_cast<std::size_t>(level)];
    const int wx[2] = {wrapFast(x0, g.wmask), wrapFast(x0 + 1, g.wmask)};
    const int wy[2] = {wrapFast(y0, g.hmask), wrapFast(y0 + 1, g.hmask)};
    footprintAddrs(g, wx, wy, addr);
}

inline void
TextureMap::fetchFootprintColors(int level, int x0, int y0,
                                 Color4f color[4]) const
{
    PARGPU_CHECK_RANGE(level, 0, numLevels() - 1, "fetchFootprint level");
    const LevelGeom &g = geom_[static_cast<std::size_t>(level)];
    const int wx[2] = {wrapFast(x0, g.wmask), wrapFast(x0 + 1, g.wmask)};
    const int wy[2] = {wrapFast(y0, g.hmask), wrapFast(y0 + 1, g.hmask)};
    footprintColors(level, g, wx, wy, color);
}

} // namespace pargpu

#endif // PARGPU_TEXTURE_TEXTURE_HH
