#include "texture/procedural.hh"

#include <algorithm>
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

/**
 * One axis of a value-noise lookup at period @p cells: the wrapped
 * lattice lines on either side of the coordinate and the smoothstepped
 * fraction between them.
 */
struct NoiseAxis
{
    int a;   ///< Lattice line at or below the coordinate, wrapped.
    int b;   ///< The next lattice line, wrapped.
    float t; ///< Smoothstepped fraction from a to b.
};

NoiseAxis
axisOf(float c, int cells)
{
    const float f = c * cells;
    const int i0 = static_cast<int>(std::floor(f));
    float t = f - i0;
    t = t * t * (3.0f - 2.0f * t);
    return {wrapLattice(i0, cells), wrapLattice(i0 + 1, cells), t};
}

/** Bilinear blend of four lattice values, x first, then y. */
float
bilerp(float v00, float v10, float v01, float v11, float tx, float ty)
{
    const float a = v00 + (v10 - v00) * tx;
    const float b = v01 + (v11 - v01) * tx;
    return a + (b - a) * ty;
}

// Octave o of fractal noise: period 8 << o, seed offset 101 * o, weight
// 0.5^(o + 1).
constexpr int
octaveCells(int o)
{
    return 8 << o;
}

constexpr std::uint32_t
octaveSeed(std::uint32_t seed, int o)
{
    return seed + o * 101u;
}

// Smoothstep-interpolated lattice noise at (u, v) with period cells.
float
valueNoise(float u, float v, int cells, std::uint32_t seed)
{
    const NoiseAxis x = axisOf(u, cells);
    const NoiseAxis y = axisOf(v, cells);
    return bilerp(latticeValue(x.a, y.a, seed), latticeValue(x.b, y.a, seed),
                  latticeValue(x.a, y.b, seed), latticeValue(x.b, y.b, seed),
                  x.t, y.t);
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
    for (int o = 0; o < octaves; ++o) {
        acc += amp * valueNoise(u, v, octaveCells(o), octaveSeed(seed, o));
        amp *= 0.5f;
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

/** Octaves of fractal noise a @p kind texture blends into its texels. */
int
noiseOctaves(TextureKind kind)
{
    switch (kind) {
      case TextureKind::Checker:
      case TextureKind::Stripes:
        return 3;
      case TextureKind::Bricks:
      case TextureKind::Wood:
      case TextureKind::Panels:
        return 4;
      case TextureKind::Noise:
      case TextureKind::Grass:
      case TextureKind::Marble:
        return 5;
    }
    return 5;
}

/**
 * fractalNoise() over every texel centre of a size x size texture,
 * tabulated once per texture: per octave, latticeValue() at every
 * wrapped lattice point and axisOf() at every texel centre. Columns and
 * rows share their centres ((i + 0.5) / size), so one axis table serves
 * both. A texel's octave is then four table loads and one bilerp(), the
 * float expressions fractalNoise() evaluates, in the same order.
 */
class NoiseTable
{
  public:
    NoiseTable(int size, int octaves, std::uint32_t seed)
        : size_(size), octaves_(octaves)
    {
        for (int o = 0; o < octaves; ++o) {
            Octave &oct = octaves_[o];
            oct.cells = octaveCells(o);
            const std::uint32_t s = octaveSeed(seed, o);
            oct.lattice.reserve(static_cast<std::size_t>(oct.cells) *
                                oct.cells);
            for (int y = 0; y < oct.cells; ++y)
                for (int x = 0; x < oct.cells; ++x)
                    oct.lattice.push_back(latticeValue(x, y, s));
            oct.axes.reserve(size);
            for (int i = 0; i < size; ++i)
                oct.axes.push_back(axisOf((i + 0.5f) / size, oct.cells));
        }
    }

    /** fractalNoise() at the centre of every texel of row @p y. */
    void
    row(int y, float *out) const
    {
        std::fill(out, out + size_, 0.0f);
        float amp = 0.5f;
        for (const Octave &oct : octaves_) {
            const NoiseAxis ay = oct.axes[y];
            const float *la =
                &oct.lattice[static_cast<std::size_t>(ay.a) * oct.cells];
            const float *lb =
                &oct.lattice[static_cast<std::size_t>(ay.b) * oct.cells];
            for (int x = 0; x < size_; ++x) {
                const NoiseAxis &ax = oct.axes[x];
                out[x] += amp * bilerp(la[ax.a], la[ax.b], lb[ax.a],
                                       lb[ax.b], ax.t, ay.t);
            }
            amp *= 0.5f;
        }
    }

  private:
    struct Octave
    {
        int cells = 0;
        std::vector<float> lattice;  ///< cells x cells, row-major.
        std::vector<NoiseAxis> axes; ///< One per texel centre.
    };

    int size_;
    std::vector<Octave> octaves_;
};

/**
 * The Stripes brightness of each column: a function of u alone, so the
 * sine runs once per column, not per texel.
 */
std::vector<float>
stripeColumns(int size)
{
    std::vector<float> s(size);
    for (int x = 0; x < size; ++x) {
        float u = (x + 0.5f) / size;
        // 60 stripes: fine directional detail that never lands on an
        // exact multiple of a power-of-two sampling rate.
        s[x] = 0.5f + 0.5f * std::sin(u * 60.0f * 6.28318f);
    }
    return s;
}

/**
 * Texel (x, y) of a @p kind texture before the detail gain; @p noise is
 * fractalNoise() at its centre with noiseOctaves(kind) octaves, and
 * @p stripes the stripeColumns() table (read by Stripes only).
 */
RGBA8
baseTexel(TextureKind kind, int size, std::uint32_t seed, float tint, int x,
          int y, float noise, const float *stripes)
{
    float u = (x + 0.5f) / size;
    float v = (y + 0.5f) / size;
    RGBA8 px;
    switch (kind) {
      case TextureKind::Checker: {
        int cx = x * 16 / size;
        int cy = y * 16 / size;
        bool on = ((cx + cy) & 1) != 0;
        float n = 0.1f * noise;
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
        if (mortar) {
            px = shade(noise, {0.6f, 0.58f, 0.55f},
                       {0.85f, 0.83f, 0.8f});
        } else {
            px = shade(noise, Color4f{0.4f, 0.12f, 0.08f} * tint,
                       Color4f{0.95f, 0.4f, 0.25f} * tint);
        }
        break;
      }
      case TextureKind::Noise: {
        px = shade(noise, Color4f{0.22f, 0.2f, 0.18f} * tint,
                   Color4f{0.98f, 0.92f, 0.82f} * tint);
        break;
      }
      case TextureKind::Grass: {
        float blades =
            0.5f + 0.5f * std::sin(v * 400.0f + noise * 20.0f);
        float t = 0.6f * noise + 0.4f * blades;
        px = shade(t, Color4f{0.08f, 0.3f, 0.08f} * tint,
                   Color4f{0.65f, 0.95f, 0.4f} * tint);
        break;
      }
      case TextureKind::Marble: {
        float veins =
            0.5f + 0.5f * std::sin((u + v) * 40.0f + noise * 12.0f);
        px = shade(veins, Color4f{0.35f, 0.33f, 0.38f} * tint,
                   {0.95f, 0.95f, 0.97f});
        break;
      }
      case TextureKind::Wood: {
        float cx = u - 0.5f, cy = v - 0.5f;
        float r = std::sqrt(cx * cx + cy * cy);
        float rings = 0.5f + 0.5f * std::sin(r * 120.0f + noise * 6.0f);
        px = shade(rings, Color4f{0.35f, 0.2f, 0.08f} * tint,
                   Color4f{0.65f, 0.45f, 0.25f} * tint);
        break;
      }
      case TextureKind::Stripes: {
        float n = 0.15f * noise;
        px = shade(std::min(1.0f, stripes[x] + n),
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
        float n = 0.1f * noise;
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

    // The tables are built once, here, and only read by the bands. Each
    // texel is a pure function of (kind, seed, x, y), so row bands fill
    // disjoint slots in parallel and match a serial loop bit for bit.
    const NoiseTable table(size, noiseOctaves(kind), seed);
    const std::vector<float> stripes = kind == TextureKind::Stripes
        ? stripeColumns(size) : std::vector<float>{};
    forEachRowBand(size, size, [&](int y0, int y1) {
        std::vector<float> noise(size);
        for (int y = y0; y < y1; ++y) {
            table.row(y, noise.data());
            for (int x = 0; x < size; ++x) {
                Color4f c = unpackRGBA8(baseTexel(kind, size, seed, tint,
                                                  x, y, noise[x],
                                                  stripes.data())) *
                    detailGain(seed, x, y);
                c.a = 1.0f;
                out[static_cast<std::size_t>(y) * size + x] = packRGBA8(c);
            }
        }
    });
    return out;
}

} // namespace pargpu
