#include "simd/filter.hh"

#include <algorithm>
#include <cmath>

#include "common/contract.hh"

// This TU is compiled at the base x86-64 ISA, which includes SSE2: the
// RGBA accumulator below rides one 4-wide register per sample with no
// dispatch needed. Each channel's lane runs the exact scalar chain
// (separate mulps/addps in slot order — no FMA at this ISA level), so
// the colors are bit-identical to the scalar fallback and independent
// of the PARGPU_SIMD tier.
#if defined(__SSE2__)
#define PARGPU_FILTER_SSE 1
#include <emmintrin.h>
#else
#define PARGPU_FILTER_SSE 0
#endif

namespace pargpu::simd
{

namespace
{

/**
 * A trilinear sample's footprint corners and blend weights: corner[2l],
 * corner[2l + 1] = (x0, y0) at level l, and weight[4l + k] = slot k's
 * bilinear weight times level l's trilinear weight.
 */
struct SampleCoords
{
    alignas(16) int corner[4];
    alignas(16) float weight[8];
};

/**
 * The scalar reference of the coordinate stage, as trilinearInto()
 * computes it: per level, the texel-space center, its floor, and the
 * four bilinear weights scaled by the level weight.
 */
template <bool kWeights>
void
coordsScalar(const Vec2 &uv, const float scale[4], const float level_w[2],
             SampleCoords &c)
{
    for (int li = 0; li < 2; ++li) {
        float tu = uv.x * scale[2 * li] - 0.5f;
        float tv = uv.y * scale[2 * li + 1] - 0.5f;
        int x0 = texelFloor(tu);
        int y0 = texelFloor(tv);
        c.corner[2 * li] = x0;
        c.corner[2 * li + 1] = y0;
        if constexpr (kWeights) {
            float fu = tu - std::floor(tu);
            float fv = tv - std::floor(tv);
            const float bw[4] = {
                (1.0f - fu) * (1.0f - fv),
                fu * (1.0f - fv),
                (1.0f - fu) * fv,
                fu * fv,
            };
            for (int k = 0; k < 4; ++k)
                c.weight[4 * li + k] = bw[k] * level_w[li];
        }
    }
}

#if PARGPU_FILTER_SSE
/**
 * coordsScalar() with both levels' (u, v) in one register: lanes
 * (tu0, tv0, tu1, tv1). Every lane runs the scalar operation sequence
 * (mul, sub; floor; sub; the weight products), so corners and weights
 * are bit-identical. floor() is a truncating convert corrected by one
 * where it rounded up — exact for every value that converts to int; a
 * lane that does not (|t| >= 2^31 or NaN, which converts to INT_MIN)
 * sends the sample to coordsScalar() instead. Saves four libm floorf
 * calls per sample (the base x86-64 ISA has no SSE4.1 roundps).
 */
template <bool kWeights>
void
coordsSse(const Vec2 &uv, __m128 scale, const float scale_s[4],
          const float level_w[2], SampleCoords &c)
{
    const __m128 uv2 = _mm_setr_ps(uv.x, uv.y, uv.x, uv.y);
    const __m128 t = _mm_sub_ps(_mm_mul_ps(uv2, scale), _mm_set1_ps(0.5f));
    const __m128i trunc = _mm_cvttps_epi32(t);
    const __m128i bad = _mm_set1_epi32(static_cast<int>(0x80000000u));
    if (_mm_movemask_epi8(_mm_cmpeq_epi32(trunc, bad)) != 0) {
        coordsScalar<kWeights>(uv, scale_s, level_w, c);
        return;
    }
    // t < trunc(t) only for negative non-integers: subtract one there
    // (the compare mask is -1 in those lanes).
    const __m128i fl = _mm_add_epi32(
        trunc, _mm_castps_si128(_mm_cmplt_ps(t, _mm_cvtepi32_ps(trunc))));
    _mm_store_si128(reinterpret_cast<__m128i *>(c.corner), fl);
    if constexpr (kWeights) {
        const __m128 f = _mm_sub_ps(t, _mm_cvtepi32_ps(fl)); // fu0 fv0 fu1 fv1
        const __m128 g = _mm_sub_ps(_mm_set1_ps(1.0f), f);   // 1 - f
        const __m128 gf[2] = {_mm_unpacklo_ps(g, f),  // 1-fu0 fu0 1-fv0 fv0
                              _mm_unpackhi_ps(g, f)}; // same for level 1
        for (int li = 0; li < 2; ++li) {
            // (1-fu, fu, 1-fu, fu) * (1-fv, 1-fv, fv, fv): the slot order.
            const __m128 a = _mm_shuffle_ps(gf[li], gf[li],
                                            _MM_SHUFFLE(1, 0, 1, 0));
            const __m128 b = _mm_shuffle_ps(gf[li], gf[li],
                                            _MM_SHUFFLE(3, 3, 2, 2));
            _mm_store_ps(c.weight + 4 * li,
                         _mm_mul_ps(_mm_mul_ps(a, b),
                                    _mm_set1_ps(level_w[li])));
        }
    }
}
#endif

} // namespace

template <QuadFilter::Mode kMode>
void
QuadFilter::gather(const TextureSampler &sampler, const Vec2 *uvs, int n,
                   const LodSelect &sel, FootprintMemo &memo,
                   TexelAddrSet *addrs, Color4f *colors)
{
    // The distribution check reads addresses only: no weights, no blend,
    // no colors fetched on a miss.
    constexpr bool kBlend = kMode != Mode::Addrs;
    PARGPU_CHECK_RANGE(n, 1, kMaxLanes, "batch lane count");
    const TextureMap &tex = sampler.texture();

    // The level selection is batch-wide: hoist the per-level constants out
    // of the sample loop. (Manually — the stores below could alias the
    // texture's arrays for all the compiler knows, blocking the hoist.)
    const int level[2] = {sel.level0, sel.level1};
    const float scale[4] = {
        static_cast<float>(tex.level(sel.level0).width),
        static_cast<float>(tex.level(sel.level0).height),
        static_cast<float>(tex.level(sel.level1).width),
        static_cast<float>(tex.level(sel.level1).height),
    };
    const float level_w[2] = {1.0f - sel.frac, sel.frac};
#if PARGPU_FILTER_SSE
    const __m128 scale_v = _mm_loadu_ps(scale);
#endif

    // Per sample: the coordinate stage above, then the same footprint
    // walk as trilinearInto() — identical address math, blend weights
    // and memo probe order — gathering and accumulating in one pass, the
    // RGBA accumulation riding one 4-wide register (one lane per channel,
    // broadcast weight). A sample's channels are independent, so
    // vectorizing ACROSS channels leaves each channel's slot-order
    // multiply-add chain untouched: the color is bit-identical to the
    // scalar fallback below, on every dispatch tier.
    SampleCoords c{};
    for (int i = 0; i < n; ++i) {
#if PARGPU_FILTER_SSE
        coordsSse<kBlend>(uvs[i], scale_v, scale, level_w, c);
        __m128 acc = _mm_setzero_ps();
#else
        coordsScalar<kBlend>(uvs[i], scale, level_w, c);
        float acc_r = 0.0f, acc_g = 0.0f, acc_b = 0.0f, acc_a = 0.0f;
#endif
        int slot = 0;
        for (int li = 0; li < 2; ++li) {
            const int x0 = c.corner[2 * li];
            const int y0 = c.corner[2 * li + 1];
            if constexpr (!kBlend) {
                const FootprintMemo::Entry &e =
                    memo.probeAddrs(tex, level[li], x0, y0);
                for (int k = 0; k < 4; ++k, ++slot)
                    addrs[i][slot] = e.addr[k];
                continue;
            }
            // Footprint by reference: a hit reads straight from the memo
            // slot, a miss fetches into the slot and reads it back — no
            // 2x2 copy either way, one hash probe total, and the
            // lookup/store counter sequence equals the sampler path's.
            const Color4f *fc;
            const Addr *fa = nullptr;
            if constexpr (kMode == Mode::Colors) {
                fc = memo.peekColors(tex, level[li], x0, y0, peek_);
            } else {
                const FootprintMemo::Entry &e =
                    memo.probe(tex, level[li], x0, y0);
                fc = e.color;
                fa = e.addr;
            }
            for (int k = 0; k < 4; ++k, ++slot) {
                const float w = c.weight[slot];
                if constexpr (kMode == Mode::Compact)
                    addrs[i][slot] = fa[k];
#if PARGPU_FILTER_SSE
                acc = _mm_add_ps(
                    acc, _mm_mul_ps(_mm_loadu_ps(&fc[k].r), _mm_set1_ps(w)));
#else
                acc_r += fc[k].r * w;
                acc_g += fc[k].g * w;
                acc_b += fc[k].b * w;
                acc_a += fc[k].a * w;
#endif
            }
        }
        if constexpr (!kBlend)
            continue;
#if PARGPU_FILTER_SSE
        _mm_storeu_ps(&colors[i].r, acc);
#else
        colors[i] = Color4f{acc_r, acc_g, acc_b, acc_a};
#endif
    }
    if constexpr (kMode != Mode::Colors)
        ++batches_;
}

void
QuadFilter::filterSamplesAddrs(const TextureSampler &sampler,
                               const Vec2 *uvs, int n, const LodSelect &sel,
                               FootprintMemo &memo, TexelAddrSet *addrs,
                               Color4f *colors)
{
    gather<Mode::Compact>(sampler, uvs, n, sel, memo, addrs, colors);
}

void
QuadFilter::sampleAddrs(const TextureSampler &sampler, const Vec2 *uvs,
                        int n, const LodSelect &sel, FootprintMemo &memo,
                        TexelAddrSet *addrs)
{
    gather<Mode::Addrs>(sampler, uvs, n, sel, memo, addrs, nullptr);
}

int
QuadFilter::anisoUvs(const Vec2 &uv, const AnisotropyInfo &info, Vec2 *out)
{
    const int n = info.sampleSize;
    // Sample placement identical to filterAnisotropicInto(): centers
    // confined to the ellipse interior along the major axis.
    float span = info.pMax > 0.0f
        ? std::max(0.0f, 1.0f - info.pMin / info.pMax) : 0.0f;
    for (int i = 0; i < n; ++i) {
        float t = span * (2.0f * i - n + 1.0f) / (2.0f * n);
        out[i] = Vec2{uv.x + info.majorUv.x * t,
                      uv.y + info.majorUv.y * t};
    }
    return n;
}

Color4f
QuadFilter::averageColors(const Color4f *colors, int n)
{
    // Same across-channel vectorization as the gather accumulator: each
    // channel's lane performs the scalar sequence (mul by 1/n, add in
    // sample order), so the mean is bit-identical to the scalar loop.
#if PARGPU_FILTER_SSE
    const __m128 inv_n = _mm_set1_ps(1.0f / static_cast<float>(n));
    __m128 acc = _mm_setzero_ps();
    for (int i = 0; i < n; ++i)
        acc = _mm_add_ps(acc,
                         _mm_mul_ps(_mm_loadu_ps(&colors[i].r), inv_n));
    Color4f out;
    _mm_storeu_ps(&out.r, acc);
    return out;
#else
    Color4f acc{0, 0, 0, 0};
    for (int i = 0; i < n; ++i)
        acc += colors[i] * (1.0f / static_cast<float>(n));
    return acc;
#endif
}

void
QuadFilter::anisotropicAddrs(const TextureSampler &sampler, const Vec2 &uv,
                             const AnisotropyInfo &info, FootprintMemo &memo,
                             TexelAddrSet *addrs)
{
    const int n = info.sampleSize;
    PARGPU_CHECK_RANGE(n, 1, kMaxLanes, "anisotropic sample count");
    anisoUvs(uv, info, uvs_);
    sampleAddrs(sampler, uvs_, n, sampler.selectLod(info.lodAF), memo, addrs);
}

Color4f
QuadFilter::anisotropicColor(const TextureSampler &sampler, const Vec2 &uv,
                             const AnisotropyInfo &info, FootprintMemo &memo)
{
    const int n = info.sampleSize;
    PARGPU_CHECK_RANGE(n, 1, kMaxLanes, "anisotropic sample count");
    anisoUvs(uv, info, uvs_);
    gather<Mode::Colors>(sampler, uvs_, n, sampler.selectLod(info.lodAF),
                         memo, nullptr, colors_);
    return averageColors(colors_, n);
}

} // namespace pargpu::simd
