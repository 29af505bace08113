/**
 * @file
 * CPU-side RGBA float image: the framebuffer contents after a simulated
 * render, and the input to the quality (SSIM) layer. Includes binary PPM
 * import/export so frames can be inspected with standard viewers.
 */

#ifndef PARGPU_COMMON_IMAGE_HH
#define PARGPU_COMMON_IMAGE_HH

#include <string>
#include <vector>

#include "common/color.hh"

namespace pargpu
{

/** A width x height raster of Color4f pixels, row-major, origin top-left. */
class Image
{
  public:
    Image() = default;

    /** Allocate a @p width x @p height image filled with @p fill. */
    Image(int width, int height, const Color4f &fill = Color4f{0, 0, 0, 1});

    int width() const { return width_; }
    int height() const { return height_; }
    bool empty() const { return pixels_.empty(); }

    /** Pixel accessor. @pre 0 <= x < width(), 0 <= y < height(). */
    Color4f &at(int x, int y) { return pixels_[idx(x, y)]; }
    const Color4f &at(int x, int y) const { return pixels_[idx(x, y)]; }

    /** Raw pixel storage (row-major). */
    const std::vector<Color4f> &pixels() const { return pixels_; }
    std::vector<Color4f> &pixels() { return pixels_; }

    /**
     * Write as binary PPM (P6), 8 bits/channel.
     * @return true on success.
     */
    bool writePPM(const std::string &path) const;

    /**
     * Read a binary PPM (P6) image.
     * @return an empty Image on failure.
     */
    static Image readPPM(const std::string &path);

  private:
    std::size_t
    idx(int x, int y) const
    {
        return static_cast<std::size_t>(y) * width_ + x;
    }

    int width_ = 0;
    int height_ = 0;
    std::vector<Color4f> pixels_;
};

} // namespace pargpu

#endif // PARGPU_COMMON_IMAGE_HH
