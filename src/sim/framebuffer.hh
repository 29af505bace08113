/**
 * @file
 * Color + depth framebuffer for the simulated GPU.
 *
 * The pixel and depth planes are plain spans so the render loop can back
 * them with storage it already has: GpuSimulator renders the color plane
 * straight into the frame's output Image and keeps the depth plane in
 * per-frame BumpArena scratch, so no plane is copied or re-allocated per
 * frame. The owning constructor keeps standalone use (tests, tools)
 * trivial.
 */

#ifndef PARGPU_SIM_FRAMEBUFFER_HH
#define PARGPU_SIM_FRAMEBUFFER_HH

#include <span>
#include <vector>

#include "common/arena.hh"
#include "common/image.hh"
#include "common/types.hh"

namespace pargpu
{

/**
 * A width x height color raster plus a float depth buffer (smaller value =
 * nearer; cleared to +inf). Planes are uninitialized until clear().
 */
class Framebuffer
{
  public:
    /** Self-owning planes (heap vectors). */
    Framebuffer(int width, int height);

    /**
     * Arena-backed planes: storage comes from @p arena and is recycled by
     * the arena's next reset(), which must outlive this framebuffer.
     */
    Framebuffer(int width, int height, BumpArena &arena);

    /**
     * Color plane = @p image's pixels, so rendering needs no final copy;
     * the depth plane comes from @p arena. Both must outlive this
     * framebuffer. The caller supplies the image already filled with the
     * clear color, so only clearDepth() remains to be done.
     */
    Framebuffer(Image &image, BumpArena &arena);

    int width() const { return width_; }
    int height() const { return height_; }

    /**
     * Clear color to @p c and depth to the far value, through the active
     * dispatch tier's fill kernels (pure stores, so every tier writes
     * identical planes).
     *
     * @return Number of SIMD fill-kernel invocations (the fb.simd_fills
     *         counter's clear contribution).
     */
    int clear(const Color4f &c);

    /**
     * Reset depth rows [y0, y1) to the far value through the active
     * tier's fill kernel. Disjoint row ranges may be cleared
     * concurrently; the result equals the depth half of clear().
     */
    void clearDepth(int y0, int y1);

    /**
     * Depth-test-and-set: returns true (and stores @p depth) if @p depth is
     * nearer than the stored value.
     */
    bool depthTest(int x, int y, float depth);

    /**
     * Depth-test-and-write all four pixels of the fully in-bounds 2x2
     * quad at even (x, y) in one kernel call; depth[i] maps to pixel
     * (x + (i & 1), y + (i >> 1)). Returns the pass mask. Lane-wise the
     * exact depthTest() compare-and-store; fail lanes rewrite their
     * original bits, so the caller must own the whole quad (true under
     * tile-parallel execution only when the quad is fully inside the
     * walk window — the caller checks coverage == 0xF first).
     */
    unsigned depthTestQuad(int x, int y, const float depth[4]);

    /**
     * Write the shaded quad colors rgba[4*i .. 4*i+3] to each pixel
     * (x + (i & 1), y + (i >> 1)) whose @p mask bit i is set, in one
     * kernel call. Lanes with a clear bit are never touched, so partial
     * quads at the viewport edge are safe.
     */
    void scatterQuad(int x, int y, const float rgba[16], unsigned mask);

    /** Read-only depth value at (x, y). */
    float depthAt(int x, int y) const;

    /** Write a shaded pixel. */
    void
    writeColor(int x, int y, const Color4f &c)
    {
        color_[static_cast<std::size_t>(y) * width_ + x] = c;
    }

    /** Read-only color at (x, y). */
    const Color4f &
    colorAt(int x, int y) const
    {
        return color_[static_cast<std::size_t>(y) * width_ + x];
    }

    /** Copy the color plane out as an Image (end-of-frame snapshot). */
    Image toImage() const;

    /** Byte address of pixel (x, y) in the simulated framebuffer region. */
    Addr pixelAddr(int x, int y) const;

  private:
    int width_ = 0;
    int height_ = 0;
    std::vector<Color4f> own_color_; ///< Owning mode only.
    std::vector<float> own_depth_;   ///< Owning mode only.
    std::span<Color4f> color_;
    std::span<float> depth_;
};

} // namespace pargpu

#endif // PARGPU_SIM_FRAMEBUFFER_HH
