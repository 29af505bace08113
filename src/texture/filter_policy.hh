/**
 * @file
 * Texel selection for the stochastic texture filtering (STF) modes
 * (docs/FILTERING.md).
 *
 * PATU's AF->TF downgrade (predictor + threshold) is one point in a wider
 * design space mapped by the related work: Stochastic Texture Filtering
 * (Fajardo et al.) trades texel fetches for noise, and Filtering After
 * Shading (Pharr et al.) moves the filter across the shading boundary.
 * Each is a filter mode (DesignScenario, selected like the paper's
 * scenarios by RunConfig::scenario) that replaces the texture unit's
 * anisotropic filtering loop, and is reported through the same
 * texunit.* counters so quality-vs-fetches comparisons are apples to
 * apples (bench/fig_policies, pargpu_report.py --compare-policies).
 *
 * The stochastic modes draw every random variate from the counter-based
 * hash discipline enforced by pargpu_lint: pixel coordinates, sample
 * index and a per-frame camera-derived seed, never wall clocks, thread
 * ids or addresses — so results are bit-identical across thread counts
 * and tile/frame-parallel execution modes.
 */

#ifndef PARGPU_TEXTURE_FILTER_POLICY_HH
#define PARGPU_TEXTURE_FILTER_POLICY_HH

#include <cstdint>

#include "common/color.hh"
#include "common/types.hh"
#include "texture/sampler.hh"
#include "texture/texture.hh"

namespace pargpu
{

/** Noise and texel selection of the three STF filter modes. */
enum class StfVariant
{
    Uniform,  ///< White noise, uniform over the footprint.
    Blue,     ///< IGN screen-space noise, uniform over the footprint.
    Weighted, ///< White noise, importance-sampled by filter weight.
};

/**
 * Per-sample uniform variate in [0, 1) for the STF modes.
 *
 * The white-noise variants hash (px, py, sample, frame_seed) through the
 * common counter-based avalanche; Blue evaluates interleaved gradient
 * noise at (px, py) — screen-space blue-noise-ish — and decorrelates
 * samples and frames with a hashed Cranley-Patterson rotation.
 */
float stfSampleU(StfVariant v, int px, int py, int sample,
                 std::uint32_t frame_seed);

/** One stochastically selected texel standing in for a trilinear sample. */
struct StfTexelChoice
{
    Addr addr = kInvalidAddr; ///< Simulated address of the chosen texel.
    Color4f estimator;        ///< Unbiased estimate of the full filter.
};

/**
 * Collapse the 8-texel trilinear footprint of (@p uv, @p sel) to a single
 * texel chosen by variate @p u. Weighted selection picks texel j with
 * probability w_j / W and returns W * c_j; uniform selection picks j
 * uniformly and returns 8 * w_j * c_j. Either way the expectation equals
 * the exact trilinear result; only one texel is fetched.
 */
StfTexelChoice stfSelectTexel(const TextureMap &tex, const Vec2 &uv,
                              const LodSelect &sel, bool weighted, float u);

} // namespace pargpu

#endif // PARGPU_TEXTURE_FILTER_POLICY_HH
