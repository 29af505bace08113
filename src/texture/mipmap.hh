/**
 * @file
 * Mipmap pyramid construction.
 */

#ifndef PARGPU_TEXTURE_MIPMAP_HH
#define PARGPU_TEXTURE_MIPMAP_HH

#include <functional>
#include <vector>

#include "texture/texture.hh"

namespace pargpu
{

/**
 * Build a full mip pyramid from a level-0 raster using a 2x2 box filter,
 * halving each dimension (minimum 1) until reaching 1x1.
 *
 * @param width   Level-0 width (power of two).
 * @param height  Level-0 height (power of two).
 * @param base    Row-major level-0 texels.
 * @param storage Host storage order of the produced levels; @p base is
 *                reordered for level 0 when it differs. The texel values
 *                are identical either way.
 * @return Levels from 0 (full resolution) to log2(max(w, h)) (1x1).
 */
std::vector<MipLevel>
buildMipPyramid(int width, int height, std::vector<RGBA8> base,
                TexelStorage storage = TexelStorage::Linear);

/**
 * Run fn(y0, y1) over the rows [0, @p height) of a @p width-wide raster in
 * row bands on the shared pool (ThreadPool::run). Band heights are
 * multiples of 4, so no two bands share a 4x4 Morton tile row. A raster
 * too small for two bands, a call from a pool worker, and a one-thread
 * pool run every band on the caller, in order. @p fn must write only the
 * rows of its own band.
 */
void forEachRowBand(int width, int height,
                    const std::function<void(int y0, int y1)> &fn);

/** True if @p v is a positive power of two. */
constexpr bool
isPowerOfTwo(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

} // namespace pargpu

#endif // PARGPU_TEXTURE_MIPMAP_HH
