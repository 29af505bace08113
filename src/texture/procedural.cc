#include "texture/procedural.hh"

#include <cmath>

#include "common/rng.hh"
#include "texture/mipmap.hh"

namespace pargpu
{

namespace
{

// Value at integer lattice point, in [0, 1].
float
latticeValue(int x, int y, std::uint32_t seed)
{
    return static_cast<float>(hashCombine(static_cast<std::uint32_t>(x),
                                          static_cast<std::uint32_t>(y),
                                          seed) & 0xFFFFFF) /
        static_cast<float>(0xFFFFFF);
}

// Smoothstep-interpolated lattice noise at (u, v) with period cells.
float
valueNoise(float u, float v, int cells, std::uint32_t seed)
{
    float fu = u * cells;
    float fv = v * cells;
    int x0 = static_cast<int>(std::floor(fu));
    int y0 = static_cast<int>(std::floor(fv));
    float tx = fu - x0;
    float ty = fv - y0;
    tx = tx * tx * (3.0f - 2.0f * tx);
    ty = ty * ty * (3.0f - 2.0f * ty);

    const int xa = wrapLattice(x0, cells), xb = wrapLattice(x0 + 1, cells);
    const int ya = wrapLattice(y0, cells), yb = wrapLattice(y0 + 1, cells);
    float v00 = latticeValue(xa, ya, seed);
    float v10 = latticeValue(xb, ya, seed);
    float v01 = latticeValue(xa, yb, seed);
    float v11 = latticeValue(xb, yb, seed);
    float a = v00 + (v10 - v00) * tx;
    float b = v01 + (v11 - v01) * tx;
    return a + (b - a) * ty;
}

RGBA8
shade(float t, const Color4f &lo, const Color4f &hi)
{
    return packRGBA8(lerp(lo, hi, t));
}

} // namespace

float
fractalNoise(float u, float v, int octaves, std::uint32_t seed)
{
    float acc = 0.0f;
    float amp = 0.5f;
    int cells = 8;
    for (int o = 0; o < octaves; ++o) {
        acc += amp * valueNoise(u, v, cells, seed + o * 101u);
        amp *= 0.5f;
        cells *= 2;
    }
    return acc;
}

namespace
{

/**
 * Per-texel detail gain: real game assets carry energy near the texel
 * Nyquist rate (surface grain, photographic detail). This is the content
 * mip-level blur destroys, so without it the AF-vs-TF perceptual
 * difference the paper measures would vanish.
 */
float
detailGain(std::uint32_t seed, int x, int y)
{
    float n = static_cast<float>(
        hashCombine(static_cast<std::uint32_t>(x),
                    static_cast<std::uint32_t>(y),
                    seed ^ 0xD37A11u) & 0xFFFF) / 65535.0f;
    // Coarser 3-texel-period component adds just-below-Nyquist energy.
    float m = static_cast<float>(
        hashCombine(static_cast<std::uint32_t>(x / 3),
                    static_cast<std::uint32_t>(y / 3),
                    seed ^ 0x5EAF00u) & 0xFFFF) / 65535.0f;
    return 0.52f + 0.48f * n + 0.48f * m;
}

/** Texel (x, y) of a @p kind texture before the detail gain. */
RGBA8
baseTexel(TextureKind kind, int size, std::uint32_t seed, float tint, int x,
          int y)
{
    float u = (x + 0.5f) / size;
    float v = (y + 0.5f) / size;
    RGBA8 px;
    switch (kind) {
      case TextureKind::Checker: {
        int cx = x * 16 / size;
        int cy = y * 16 / size;
        bool on = ((cx + cy) & 1) != 0;
        float n = 0.1f * fractalNoise(u, v, 3, seed);
        px = on ? shade(n, {0.9f, 0.9f, 0.88f}, {1, 1, 1})
                : shade(n, {0.08f, 0.08f, 0.1f}, {0.2f, 0.2f, 0.22f});
        break;
      }
      case TextureKind::Bricks: {
        float row = v * 16.0f;
        int row_i = static_cast<int>(row);
        float col = u * 8.0f + ((row_i & 1) ? 0.5f : 0.0f);
        float fy = row - row_i;
        float fx = col - std::floor(col);
        bool mortar = fy < 0.12f || fx < 0.06f;
        float n = fractalNoise(u, v, 4, seed);
        if (mortar) {
            px = shade(n, {0.6f, 0.58f, 0.55f},
                       {0.85f, 0.83f, 0.8f});
        } else {
            px = shade(n, Color4f{0.4f, 0.12f, 0.08f} * tint,
                       Color4f{0.95f, 0.4f, 0.25f} * tint);
        }
        break;
      }
      case TextureKind::Noise: {
        float n = fractalNoise(u, v, 5, seed);
        px = shade(n, Color4f{0.22f, 0.2f, 0.18f} * tint,
                   Color4f{0.98f, 0.92f, 0.82f} * tint);
        break;
      }
      case TextureKind::Grass: {
        float n = fractalNoise(u, v, 5, seed);
        float blades =
            0.5f + 0.5f * std::sin(v * 400.0f + n * 20.0f);
        float t = 0.6f * n + 0.4f * blades;
        px = shade(t, Color4f{0.08f, 0.3f, 0.08f} * tint,
                   Color4f{0.65f, 0.95f, 0.4f} * tint);
        break;
      }
      case TextureKind::Marble: {
        float n = fractalNoise(u, v, 5, seed);
        float veins =
            0.5f + 0.5f * std::sin((u + v) * 40.0f + n * 12.0f);
        px = shade(veins, Color4f{0.35f, 0.33f, 0.38f} * tint,
                   {0.95f, 0.95f, 0.97f});
        break;
      }
      case TextureKind::Wood: {
        float cx = u - 0.5f, cy = v - 0.5f;
        float r = std::sqrt(cx * cx + cy * cy);
        float n = fractalNoise(u, v, 4, seed);
        float rings = 0.5f + 0.5f * std::sin(r * 120.0f + n * 6.0f);
        px = shade(rings, Color4f{0.35f, 0.2f, 0.08f} * tint,
                   Color4f{0.65f, 0.45f, 0.25f} * tint);
        break;
      }
      case TextureKind::Stripes: {
        // 60 stripes: fine directional detail that never lands on
        // an exact multiple of a power-of-two sampling rate.
        float s = 0.5f + 0.5f * std::sin(u * 60.0f * 6.28318f);
        float n = 0.15f * fractalNoise(u, v, 3, seed);
        px = shade(std::min(1.0f, s + n),
                   Color4f{0.15f, 0.15f, 0.18f} * tint,
                   Color4f{0.85f, 0.82f, 0.1f} * tint);
        break;
      }
      case TextureKind::Panels: {
        float gx = u * 8.0f, gy = v * 8.0f;
        float fx = gx - std::floor(gx);
        float fy = gy - std::floor(gy);
        bool seam = fx < 0.05f || fy < 0.05f;
        std::uint32_t cell = hashCombine(
            static_cast<std::uint32_t>(gx),
            static_cast<std::uint32_t>(gy), seed);
        // Kept dim: sci-fi interiors read darker than the other
        // families, which drives doom3's low perception penalty.
        float shade_v = 0.22f + 0.34f * ((cell & 0xFF) / 255.0f);
        float n = 0.1f * fractalNoise(u, v, 4, seed);
        if (seam) {
            px = packRGBA8({0.05f, 0.05f, 0.07f, 1.0f});
        } else {
            px = packRGBA8(Color4f{shade_v + n, shade_v + n,
                                   shade_v + 0.1f + n, 1.0f} * tint);
        }
        break;
      }
    }
    return px;
}

} // namespace

std::vector<RGBA8>
generateTexture(TextureKind kind, int size, std::uint32_t seed)
{
    std::vector<RGBA8> out(static_cast<std::size_t>(size) * size);
    SplitMix64 rng(seed);
    // Per-texture tint variation so two textures of the same kind differ.
    const float tint = 0.85f + 0.3f * rng.nextFloat();

    // Each texel is a pure function of (kind, seed, x, y), so row bands
    // fill disjoint slots in parallel and match a serial loop bit for bit.
    forEachRowBand(size, size, [&](int y0, int y1) {
        for (int y = y0; y < y1; ++y) {
            for (int x = 0; x < size; ++x) {
                Color4f c = unpackRGBA8(baseTexel(kind, size, seed, tint,
                                                  x, y)) *
                    detailGain(seed, x, y);
                c.a = 1.0f;
                out[static_cast<std::size_t>(y) * size + x] = packRGBA8(c);
            }
        }
    });
    return out;
}

} // namespace pargpu
