#include "texture/mipmap.hh"

#include <algorithm>

#include "common/contract.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"

namespace pargpu
{

namespace
{

/**
 * Texels per row band. A 512x512 raster splits into 32 bands and a
 * level of 8192 texels or fewer stays in one (inline) band.
 */
constexpr int kBandTexels = 8192;

} // namespace

void
forEachRowBand(int width, int height,
               const std::function<void(int y0, int y1)> &fn)
{
    const int rows = std::max(4, (kBandTexels / std::max(width, 1) + 3) & ~3);
    const std::size_t bands = static_cast<std::size_t>((height + rows - 1) /
                                                       rows);
    ThreadPool::run(bands, 1, [&](std::size_t b) {
        const int y0 = static_cast<int>(b) * rows;
        fn(y0, std::min(height, y0 + rows));
    });
}

std::vector<MipLevel>
buildMipPyramid(int width, int height, std::vector<RGBA8> base,
                TexelStorage storage)
{
    if (!isPowerOfTwo(width) || !isPowerOfTwo(height))
        fatal("texture dimensions must be powers of two");
    if (base.size() != static_cast<std::size_t>(width) * height)
        fatal("texel count does not match texture dimensions");

    std::vector<MipLevel> levels;
    MipLevel l0;
    l0.width = width;
    l0.height = height;
    l0.storage = storage;
    if (storage == TexelStorage::Linear) {
        l0.texels = std::move(base);
    } else {
        // The input raster is row-major by contract; swizzle it into the
        // requested storage order. Pure reordering — values are untouched.
        l0.texels.resize(base.size());
        forEachRowBand(width, height, [&](int y0, int y1) {
            for (int y = y0; y < y1; ++y)
                for (int x = 0; x < width; ++x)
                    l0.at(x, y) =
                        base[static_cast<std::size_t>(y) * width + x];
        });
    }
    levels.push_back(std::move(l0));

    while (levels.back().width > 1 || levels.back().height > 1) {
        const MipLevel &src = levels.back();
        MipLevel dst;
        dst.width = std::max(1, src.width / 2);
        dst.height = std::max(1, src.height / 2);
        dst.storage = storage;
        dst.texels.resize(static_cast<std::size_t>(dst.width) * dst.height);
        forEachRowBand(dst.width, dst.height, [&](int y0, int y1) {
            for (int y = y0; y < y1; ++y) {
                for (int x = 0; x < dst.width; ++x) {
                    // Box filter over the (up to) 2x2 source footprint;
                    // for non-square pyramids the collapsed axis
                    // contributes one sample.
                    int sx0 = std::min(2 * x, src.width - 1);
                    int sx1 = std::min(2 * x + 1, src.width - 1);
                    int sy0 = std::min(2 * y, src.height - 1);
                    int sy1 = std::min(2 * y + 1, src.height - 1);
                    Color4f acc = unpackRGBA8(src.at(sx0, sy0));
                    acc += unpackRGBA8(src.at(sx1, sy0));
                    acc += unpackRGBA8(src.at(sx0, sy1));
                    acc += unpackRGBA8(src.at(sx1, sy1));
                    dst.at(x, y) = packRGBA8(acc * 0.25f);
                }
            }
        });
        levels.push_back(std::move(dst));
    }
    // A power-of-two pyramid always terminates at 1x1 after exactly
    // log2(max(w, h)) + 1 levels; the texel addressing relies on it.
    PARGPU_INVARIANT(levels.back().width == 1 && levels.back().height == 1,
                     "pyramid apex is ", levels.back().width, "x",
                     levels.back().height);
    return levels;
}

} // namespace pargpu
