/**
 * @file
 * Procedural texture generators.
 *
 * The paper renders commercial game traces whose texture assets we cannot
 * redistribute; these generators produce deterministic stand-ins with the
 * properties that matter for the experiments — high-frequency detail (so AF
 * vs TF differences are visible in SSIM), a range of contrast levels, and
 * distinct per-game looks (see DESIGN.md substitution table).
 */

#ifndef PARGPU_TEXTURE_PROCEDURAL_HH
#define PARGPU_TEXTURE_PROCEDURAL_HH

#include <cstdint>
#include <vector>

#include "common/color.hh"

namespace pargpu
{

/** Families of procedural texture content. */
enum class TextureKind
{
    Checker,  ///< Two-tone checkerboard (sharp edges, worst-case aliasing).
    Bricks,   ///< Brick courses with mortar lines.
    Noise,    ///< Fractal value noise (natural surfaces: rock, ground).
    Grass,    ///< Green-band noise with blade streaks.
    Marble,   ///< Sine-warped noise veins.
    Wood,     ///< Concentric ring pattern.
    Stripes,  ///< Fine directional stripes (racing-track style).
    Panels,   ///< Rectangular tech panels with seams (sci-fi interiors).
};

/**
 * Generate a square procedural texture's level-0 texels.
 *
 * The fractal noise is tabulated per call, not cached across calls:
 * per octave, the lattice value at every wrapped lattice point and the
 * lattice lines and smoothstepped fraction at every texel centre. Each
 * texel then blends four table entries per octave with the float
 * expressions of fractalNoise(), so its noise equals
 * fractalNoise((x + 0.5) / size, (y + 0.5) / size, ...) bit for bit.
 * Row bands run on the shared pool; the texels are identical at any
 * pool size.
 *
 * @param kind  Content family.
 * @param size  Width == height (power of two).
 * @param seed  Deterministic variation seed.
 * @return Row-major RGBA8 texels, size * size entries.
 */
std::vector<RGBA8> generateTexture(TextureKind kind, int size,
                                   std::uint32_t seed);

/**
 * Wrap lattice coordinate @p c into [0, cells) for a power-of-two
 * @p cells (value noise uses 8 << octave). Equals the floored modulo
 * ((c % cells) + cells) % cells for negative @p c as well.
 */
constexpr int
wrapLattice(int c, int cells)
{
    return c & (cells - 1);
}

/**
 * Fractal value noise in [0, 1] at normalized coordinates (u, v), with
 * @p octaves octaves of lattice value noise: octave o has period 8 << o
 * lattice cells, seed @p seed + 101 * o and weight 0.5^(o + 1). The point
 * query behind generateTexture()'s noise tables, which share its lattice
 * and interpolation helpers.
 */
float fractalNoise(float u, float v, int octaves, std::uint32_t seed);

} // namespace pargpu

#endif // PARGPU_TEXTURE_PROCEDURAL_HH
