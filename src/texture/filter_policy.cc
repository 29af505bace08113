#include "texture/filter_policy.hh"

#include <cmath>

#include "common/contract.hh"
#include "common/rng.hh"

namespace pargpu
{

namespace
{

// Per-variant hash salts: distinct streams so two stochastic modes run
// on the same trace never share noise patterns.
constexpr std::uint32_t kSaltUniform = 0xB5297A4Du;
constexpr std::uint32_t kSaltWeighted = 0x68E31DA4u;
constexpr std::uint32_t kSaltBlueRot = 0x1B56C4E9u;

/** Hash bits -> float in [0, 1): 24 high bits, exactly representable. */
float
bitsToUnit(std::uint32_t bits)
{
    return static_cast<float>(bits >> 8) * 0x1p-24f;
}

/**
 * Interleaved gradient noise (Jimenez): a cheap screen-space pattern
 * whose spectrum is blue-noise-ish — neighbouring pixels get widely
 * separated values, which pushes STF error to high spatial frequencies.
 */
float
ign(int px, int py)
{
    float v = 0.06711056f * static_cast<float>(px) +
        0.00583715f * static_cast<float>(py);
    v -= std::floor(v);
    float w = 52.9829189f * v;
    return w - std::floor(w);
}

} // namespace

float
stfSampleU(StfVariant v, int px, int py, int sample,
           std::uint32_t frame_seed)
{
    const std::uint32_t ux = static_cast<std::uint32_t>(px);
    const std::uint32_t uy = static_cast<std::uint32_t>(py);
    const std::uint32_t us = static_cast<std::uint32_t>(sample);
    if (v != StfVariant::Blue) {
        const std::uint32_t salt =
            v == StfVariant::Uniform ? kSaltUniform : kSaltWeighted;
        std::uint32_t bits =
            hashCombine(hashCombine(ux, uy, salt), us, frame_seed);
        return bitsToUnit(bits);
    }
    // Cranley-Patterson rotation of the screen-space IGN value: the
    // per-(sample, frame) offset decorrelates AF samples within a pixel
    // and re-seeds the pattern every frame, while the IGN base keeps the
    // error blue-noise-ish across neighbouring pixels.
    float u = ign(px, py) +
        bitsToUnit(hashCombine(us, kSaltBlueRot, frame_seed));
    u -= std::floor(u);
    return u;
}

StfTexelChoice
stfSelectTexel(const TextureMap &tex, const Vec2 &uv, const LodSelect &sel,
               bool weighted, float u)
{
    PARGPU_ASSERT(u >= 0.0f && u < 1.0f, "STF variate out of [0,1): ", u);

    // The 8 candidate texels and their trilinear weights — the same
    // footprint math as TextureSampler::trilinearInto(), evaluated
    // arithmetically (no texel fetch, no address issued) because only one
    // of the eight will actually be touched.
    float w[8];
    int tx[8];
    int ty[8];
    int tl[8];
    int slot = 0;
    for (int li = 0; li < 2; ++li) {
        int level = li == 0 ? sel.level0 : sel.level1;
        float level_w = li == 0 ? 1.0f - sel.frac : sel.frac;
        const MipLevel &lv = tex.level(level);
        float tu = uv.x * static_cast<float>(lv.width) - 0.5f;
        float tv = uv.y * static_cast<float>(lv.height) - 0.5f;
        int x0 = texelFloor(tu);
        int y0 = texelFloor(tv);
        float fu = tu - std::floor(tu);
        float fv = tv - std::floor(tv);
        const float bw[4] = {
            (1.0f - fu) * (1.0f - fv),
            fu * (1.0f - fv),
            (1.0f - fu) * fv,
            fu * fv,
        };
        const int dx[4] = {0, 1, 0, 1};
        const int dy[4] = {0, 0, 1, 1};
        for (int i = 0; i < 4; ++i, ++slot) {
            tl[slot] = level;
            tx[slot] = x0 + dx[i];
            ty[slot] = y0 + dy[i];
            w[slot] = bw[i] * level_w;
        }
    }

    int j;
    float scale;
    if (weighted) {
        // Pick texel j with probability w_j / W; the estimator W * c_j
        // then has expectation sum(w_j * c_j) — the exact filter result.
        // The bilinear weights of each level sum to 1 and the level
        // weights to 1, so W is 1 up to rounding; zero-weight texels
        // (e.g. the duplicated level when LOD clamps) are never chosen.
        float total = 0.0f;
        for (float wk : w)
            total += wk;
        const float target = u * total;
        float cum = 0.0f;
        j = 7;
        for (int k = 0; k < 8; ++k) {
            cum += w[k];
            if (target < cum) {
                j = k;
                break;
            }
        }
        scale = total;
    } else {
        // Uniform over the 8 candidates: estimator 8 * w_j * c_j. Same
        // expectation, higher variance (zero-weight texels waste draws).
        j = static_cast<int>(u * 8.0f);
        j = j > 7 ? 7 : j;
        scale = 8.0f * w[j];
    }

    StfTexelChoice choice;
    // fetchTexel()/texelAddr() wrap out-of-range coordinates internally,
    // matching the footprint fetches of the exact path.
    choice.addr = tex.texelAddr(tl[j], tx[j], ty[j]);
    choice.estimator = tex.fetchTexel(tl[j], tx[j], ty[j]) * scale;
    return choice;
}

} // namespace pargpu
