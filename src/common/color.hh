/**
 * @file
 * RGBA color representations used across the texture and raster pipelines.
 *
 * The functional pipeline filters in float; texture memory stores packed
 * 8-bit RGBA texels (4 bytes/texel), which is what the address calculators
 * and caches operate on.
 */

#ifndef PARGPU_COMMON_COLOR_HH
#define PARGPU_COMMON_COLOR_HH

#include <algorithm>
#include <cstdint>

namespace pargpu
{

/** Four-component floating-point color, each channel nominally in [0, 1]. */
struct Color4f
{
    float r = 0.0f;
    float g = 0.0f;
    float b = 0.0f;
    float a = 1.0f;

    constexpr Color4f() = default;
    constexpr Color4f(float rv, float gv, float bv, float av = 1.0f)
        : r(rv), g(gv), b(bv), a(av) {}

    constexpr Color4f operator+(const Color4f &o) const
    { return {r + o.r, g + o.g, b + o.b, a + o.a}; }
    constexpr Color4f operator-(const Color4f &o) const
    { return {r - o.r, g - o.g, b - o.b, a - o.a}; }
    constexpr Color4f operator*(float s) const
    { return {r * s, g * s, b * s, a * s}; }
    constexpr Color4f operator*(const Color4f &o) const
    { return {r * o.r, g * o.g, b * o.b, a * o.a}; }
    constexpr Color4f &operator+=(const Color4f &o)
    { r += o.r; g += o.g; b += o.b; a += o.a; return *this; }

    /** Clamp all channels into [0, 1]. */
    Color4f
    clamped() const
    {
        auto c = [](float v) { return std::clamp(v, 0.0f, 1.0f); };
        return {c(r), c(g), c(b), c(a)};
    }

    /**
     * Rec.601 luma of the clamped color; the quality layer computes SSIM on
     * this channel, matching common SSIM practice.
     */
    float
    luma() const
    {
        Color4f c = clamped();
        return 0.299f * c.r + 0.587f * c.g + 0.114f * c.b;
    }
};

/** Packed 8-bit-per-channel RGBA texel as stored in texture memory. */
struct RGBA8
{
    std::uint8_t r = 0;
    std::uint8_t g = 0;
    std::uint8_t b = 0;
    std::uint8_t a = 255;

    /** Bytes per packed texel; drives texel address arithmetic. */
    static constexpr unsigned kBytes = 4;
};

/** Quantize a float color to packed RGBA8 (round-to-nearest). */
inline RGBA8
packRGBA8(const Color4f &c)
{
    auto q = [](float v) {
        // NaN fails v > 0 and maps to 0: std::clamp would pass it through
        // to the conversion, which is undefined for NaN.
        const float c = v > 0.0f ? std::min(v, 1.0f) : 0.0f;
        return static_cast<std::uint8_t>(c * 255.0f + 0.5f);
    };
    return {q(c.r), q(c.g), q(c.b), q(c.a)};
}

/** Expand a packed RGBA8 texel back to float. */
inline constexpr Color4f
unpackRGBA8(const RGBA8 &p)
{
    constexpr float inv = 1.0f / 255.0f;
    return {p.r * inv, p.g * inv, p.b * inv, p.a * inv};
}

/** Linear interpolation between two colors. */
inline constexpr Color4f
lerp(const Color4f &a, const Color4f &b, float t)
{
    return a * (1.0f - t) + b * t;
}

} // namespace pargpu

#endif // PARGPU_COMMON_COLOR_HH
