/**
 * @file
 * The FilterPolicy family: pluggable strategies for approximating texture
 * filtering in the sampling path (docs/FILTERING.md).
 *
 * PATU's AF->TF downgrade (predictor + threshold) is one point in a wider
 * design space mapped by the related work: Stochastic Texture Filtering
 * (Fajardo et al.) trades texel fetches for noise, and Filtering After
 * Shading (Pharr et al.) moves the filter across the shading boundary.
 * Each policy here is a drop-in replacement for the texture unit's
 * anisotropic filtering loop, selected by RunConfig::filter_policy
 * (--run-filter-policy / PARGPU_FILTER_POLICY) and reported through the
 * same texunit.* counters so quality-vs-fetches comparisons are apples to
 * apples (bench/fig_policies, pargpu_report.py --compare-policies).
 *
 * Stochastic policies draw every random variate from the counter-based
 * hash discipline enforced by pargpu_analyze: pixel coordinates, sample
 * index and a per-frame camera-derived seed, never wall clocks, thread
 * ids or addresses — so results are bit-identical across thread counts
 * and tile/frame-parallel execution modes.
 */

#ifndef PARGPU_TEXTURE_FILTER_POLICY_HH
#define PARGPU_TEXTURE_FILTER_POLICY_HH

#include <cstdint>
#include <span>
#include <string_view>

#include "common/color.hh"
#include "common/types.hh"
#include "texture/sampler.hh"
#include "texture/texture.hh"

namespace pargpu
{

/**
 * Filtering strategy of the texture unit's anisotropic path. Orthogonal
 * to DesignScenario: the scenario picks which PATU predictor stages run,
 * and only the Patu policy consults the predictor at all.
 */
enum class FilterPolicyId
{
    Patu = 0,           ///< Paper flow: predictor-gated AF->TF downgrade.
    StfUniform,         ///< One white-noise texel per AF sample.
    StfBlue,            ///< One texel per sample, IGN screen-space noise.
    StfWeighted,        ///< One weight-importance-sampled texel per sample.
    FilterAfterShading, ///< Sharp centroid sample + cross-quad filter.
};

/** Registry row describing one selectable policy. */
struct FilterPolicyDesc
{
    FilterPolicyId id;
    const char *name;    ///< CLI / env / metrics spelling.
    const char *summary; ///< One-line description for --help and docs.
};

/** All registered policies (pargpu_lint's policy-doc rule scans this). */
std::span<const FilterPolicyDesc> filterPolicyRegistry();

/** Canonical name of @p id ("patu", "stf_uniform", ...). */
const char *filterPolicyName(FilterPolicyId id);

/** True iff @p id is one of the registered policies. */
bool isKnownFilterPolicy(FilterPolicyId id);

/** Parse a policy name; returns false (out untouched) when unknown. */
bool parseFilterPolicy(std::string_view name, FilterPolicyId &out);

/**
 * The policy a default RunConfig selects: the last
 * setDefaultFilterPolicy() (PARGPU_FILTER_POLICY, through
 * parseEnvironment()), else FilterPolicyId::Patu.
 */
FilterPolicyId defaultFilterPolicy();

/** Set defaultFilterPolicy() (@p id must be a registered policy). */
void setDefaultFilterPolicy(FilterPolicyId id);

/**
 * Per-sample uniform variate in [0, 1) for the stochastic policies.
 *
 * White-noise policies hash (px, py, sample, frame_seed) through the
 * common counter-based avalanche; StfBlue evaluates interleaved gradient
 * noise at (px, py) — screen-space blue-noise-ish — and decorrelates
 * samples and frames with a hashed Cranley-Patterson rotation.
 */
float stfSampleU(FilterPolicyId id, int px, int py, int sample,
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
