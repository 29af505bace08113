#include "sim/framebuffer.hh"

#include <algorithm>
#include <limits>

#include "common/contract.hh"
#include "sim/config.hh"
#include "simd/kernels.hh"

namespace pargpu
{

Framebuffer::Framebuffer(int width, int height)
    : width_(width), height_(height),
      own_color_(static_cast<std::size_t>(width) * height),
      own_depth_(static_cast<std::size_t>(width) * height,
                 std::numeric_limits<float>::infinity()),
      color_(own_color_), depth_(own_depth_)
{
}

Framebuffer::Framebuffer(int width, int height, BumpArena &arena)
    : width_(width), height_(height),
      color_(arena.allocSpanUninit<Color4f>(
          static_cast<std::size_t>(width) * height)),
      depth_(arena.allocSpanUninit<float>(
          static_cast<std::size_t>(width) * height))
{
}

Framebuffer::Framebuffer(Image &image, BumpArena &arena)
    : width_(image.width()), height_(image.height()),
      color_(image.pixels()),
      depth_(arena.allocSpanUninit<float>(image.pixels().size()))
{
}

int
Framebuffer::clear(const Color4f &c)
{
    const float rgba[4] = {c.r, c.g, c.b, c.a};
    simd::activeKernels().fill_color(
        reinterpret_cast<float *>(color_.data()),
        static_cast<int>(color_.size()), rgba);
    clearDepth(0, height_);
    return 2;
}

void
Framebuffer::clearDepth(int y0, int y1)
{
    const std::size_t row = static_cast<std::size_t>(width_);
    simd::activeKernels().fill_depth(
        depth_.data() + static_cast<std::size_t>(y0) * row,
        static_cast<int>(static_cast<std::size_t>(y1 - y0) * row),
        std::numeric_limits<float>::infinity());
}

unsigned
Framebuffer::depthTestQuad(int x, int y, const float depth[4])
{
    PARGPU_CHECK_RANGE(x, 0, width() - 2, "depth quad x");
    PARGPU_CHECK_RANGE(y, 0, height() - 2, "depth quad y");
    float *row0 = depth_.data() + static_cast<std::size_t>(y) * width() + x;
    return simd::activeKernels().depth_quad(row0, row0 + width(), depth);
}

void
Framebuffer::scatterQuad(int x, int y, const float rgba[16], unsigned mask)
{
    float *row0 = reinterpret_cast<float *>(
        color_.data() + static_cast<std::size_t>(y) * width() + x);
    // The bottom row may fall off the viewport on odd heights; it is
    // only reachable when a mask bit selects it, so alias it to the top
    // row otherwise rather than form an out-of-range pointer.
    float *row1 = (mask & 0xCu) != 0
        ? reinterpret_cast<float *>(
              color_.data() + static_cast<std::size_t>(y + 1) * width() + x)
        : row0;
    simd::activeKernels().scatter_quad(row0, row1, rgba, mask);
}

bool
Framebuffer::depthTest(int x, int y, float depth)
{
    PARGPU_CHECK_RANGE(x, 0, width() - 1, "depth test x");
    PARGPU_CHECK_RANGE(y, 0, height() - 1, "depth test y");
    float &stored = depth_[static_cast<std::size_t>(y) * width() + x];
    if (depth < stored) {
        stored = depth;
        return true;
    }
    return false;
}

float
Framebuffer::depthAt(int x, int y) const
{
    return depth_[static_cast<std::size_t>(y) * width() + x];
}

Image
Framebuffer::toImage() const
{
    Image img(width_, height_);
    std::copy(color_.begin(), color_.end(), img.pixels().begin());
    return img;
}

Addr
Framebuffer::pixelAddr(int x, int y) const
{
    return AddressMap::kFramebufferBase +
        (static_cast<Addr>(y) * width() + x) * 4;
}

} // namespace pargpu
