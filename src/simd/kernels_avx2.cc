// Compiled with -mavx2 (see CMakeLists.txt); keep this TU free of any
// inline code shared with portable translation units.
#include <immintrin.h>

#include "simd/kernels.hh"

namespace pargpu::simd
{

namespace
{

/**
 * 8 lanes per step. vmulps + vaddps, never vfmadd (the build does not
 * enable FMA and the intrinsics are not contractable), so each lane's
 * chain is bit-identical to accumulateScalar().
 */
void
accumulateAvx2(const TexelBatch &tex, const WeightBatch &wgt, int slots,
               int lanes, float *out_r, float *out_g, float *out_b,
               float *out_a)
{
    for (int j = 0; j < lanes; j += 8) {
        __m256 r = _mm256_setzero_ps();
        __m256 g = _mm256_setzero_ps();
        __m256 b = _mm256_setzero_ps();
        __m256 a = _mm256_setzero_ps();
        for (int s = 0; s < slots; ++s) {
            const __m256 w = _mm256_load_ps(&wgt.w[s][j]);
            r = _mm256_add_ps(
                r, _mm256_mul_ps(_mm256_load_ps(&tex.r[s][j]), w));
            g = _mm256_add_ps(
                g, _mm256_mul_ps(_mm256_load_ps(&tex.g[s][j]), w));
            b = _mm256_add_ps(
                b, _mm256_mul_ps(_mm256_load_ps(&tex.b[s][j]), w));
            a = _mm256_add_ps(
                a, _mm256_mul_ps(_mm256_load_ps(&tex.a[s][j]), w));
        }
        _mm256_store_ps(out_r + j, r);
        _mm256_store_ps(out_g + j, g);
        _mm256_store_ps(out_b + j, b);
        _mm256_store_ps(out_a + j, a);
    }
}

/**
 * A 2x2 quad is exactly one 4-lane vector, so the AVX2 tier evaluates
 * it at SSE width — VEX-encoded here, but the same fixed vsubps/vmulps/
 * vaddps/vdivps chain as the SSE tier, hence bit-identical to the
 * scalar reference (see kernels_sse.cc for the chain notes).
 */
void
edgeQuadAvx2(const EdgeTri &tri, int qx, int qy, int x0, int y0, int x1,
             int y1, EdgeQuadOut &out)
{
    const __m128 half = _mm_set1_ps(0.5f);
    const __m128 vcx = _mm_add_ps(
        _mm_cvtepi32_ps(_mm_setr_epi32(qx, qx + 1, qx, qx + 1)), half);
    const __m128 vcy = _mm_add_ps(
        _mm_cvtepi32_ps(_mm_setr_epi32(qy, qy, qy + 1, qy + 1)), half);

    const __m128 ax = _mm_set1_ps(tri.ax), ay = _mm_set1_ps(tri.ay);
    const __m128 bx = _mm_set1_ps(tri.bx), by = _mm_set1_ps(tri.by);
    const __m128 cx = _mm_set1_ps(tri.cx), cy = _mm_set1_ps(tri.cy);

    const __m128 e0 = _mm_sub_ps(
        _mm_mul_ps(_mm_sub_ps(vcx, bx), _mm_sub_ps(cy, by)),
        _mm_mul_ps(_mm_sub_ps(vcy, by), _mm_sub_ps(cx, bx)));
    const __m128 e1 = _mm_sub_ps(
        _mm_mul_ps(_mm_sub_ps(vcx, cx), _mm_sub_ps(ay, cy)),
        _mm_mul_ps(_mm_sub_ps(vcy, cy), _mm_sub_ps(ax, cx)));

    const __m128 inv_area = _mm_set1_ps(tri.inv_area);
    const __m128 w0 = _mm_mul_ps(e0, inv_area);
    const __m128 w1 = _mm_mul_ps(e1, inv_area);
    const __m128 one = _mm_set1_ps(1.0f);
    const __m128 w2 = _mm_sub_ps(_mm_sub_ps(one, w0), w1);

    const __m128 inv_w = _mm_add_ps(
        _mm_add_ps(_mm_mul_ps(w0, _mm_set1_ps(tri.iw0)),
                   _mm_mul_ps(w1, _mm_set1_ps(tri.iw1))),
        _mm_mul_ps(w2, _mm_set1_ps(tri.iw2)));
    const __m128 u_w = _mm_add_ps(
        _mm_add_ps(_mm_mul_ps(w0, _mm_set1_ps(tri.uw0)),
                   _mm_mul_ps(w1, _mm_set1_ps(tri.uw1))),
        _mm_mul_ps(w2, _mm_set1_ps(tri.uw2)));
    const __m128 v_w = _mm_add_ps(
        _mm_add_ps(_mm_mul_ps(w0, _mm_set1_ps(tri.vw0)),
                   _mm_mul_ps(w1, _mm_set1_ps(tri.vw1))),
        _mm_mul_ps(w2, _mm_set1_ps(tri.vw2)));

    const __m128 zero = _mm_setzero_ps();
    const __m128 rcp = _mm_and_ps(_mm_div_ps(one, inv_w),
                                  _mm_cmpneq_ps(inv_w, zero));
    _mm_storeu_ps(out.u, _mm_mul_ps(u_w, rcp));
    _mm_storeu_ps(out.v, _mm_mul_ps(v_w, rcp));
    _mm_storeu_ps(out.depth,
                  _mm_add_ps(_mm_add_ps(
                                 _mm_mul_ps(w0, _mm_set1_ps(tri.z0)),
                                 _mm_mul_ps(w1, _mm_set1_ps(tri.z1))),
                             _mm_mul_ps(w2, _mm_set1_ps(tri.z2))));

    const __m128 inside = _mm_and_ps(
        _mm_and_ps(_mm_cmpge_ps(w0, zero), _mm_cmpge_ps(w1, zero)),
        _mm_cmpge_ps(w2, zero));
    const unsigned in0 = qx >= x0 && qx <= x1 ? 1u : 0u;
    const unsigned in1 = qx + 1 >= x0 && qx + 1 <= x1 ? 1u : 0u;
    const unsigned iny0 = qy >= y0 && qy <= y1 ? 1u : 0u;
    const unsigned iny1 = qy + 1 >= y0 && qy + 1 <= y1 ? 1u : 0u;
    const unsigned wmask = (in0 & iny0) | ((in1 & iny0) << 1) |
        ((in0 & iny1) << 2) | ((in1 & iny1) << 3);
    out.coverage =
        static_cast<unsigned>(_mm_movemask_ps(inside)) & wmask;
}

void
fillColorAvx2(float *dst, int pixels, const float *rgba)
{
    const __m128 c = _mm_loadu_ps(rgba);
    const __m256 cc = _mm256_set_m128(c, c);
    int i = 0;
    for (; i + 2 <= pixels; i += 2)
        _mm256_storeu_ps(dst + 4 * i, cc);
    if (i < pixels)
        _mm_storeu_ps(dst + 4 * i, c);
}

void
fillDepthAvx2(float *dst, int count, float value)
{
    const __m256 v = _mm256_set1_ps(value);
    int i = 0;
    for (; i + 8 <= count; i += 8)
        _mm256_storeu_ps(dst + i, v);
    for (; i < count; ++i)
        dst[i] = value;
}

/** SSE-width body (one quad is 4 lanes); see kernels_sse.cc notes. */
unsigned
depthQuadAvx2(float *row0, float *row1, const float *depth)
{
    __m128 stored = _mm_setzero_ps();
    stored = _mm_loadl_pi(stored, reinterpret_cast<const __m64 *>(row0));
    stored = _mm_loadh_pi(stored, reinterpret_cast<const __m64 *>(row1));
    const __m128 d = _mm_loadu_ps(depth);
    const __m128 pass = _mm_cmplt_ps(d, stored);
    const __m128 updated =
        _mm_or_ps(_mm_and_ps(pass, d), _mm_andnot_ps(pass, stored));
    _mm_storel_pi(reinterpret_cast<__m64 *>(row0), updated);
    _mm_storeh_pi(reinterpret_cast<__m64 *>(row1), updated);
    return static_cast<unsigned>(_mm_movemask_ps(pass));
}

void
scatterQuadAvx2(float *row0, float *row1, const float *rgba, unsigned mask)
{
    if ((mask & 3u) == 3u) {
        _mm256_storeu_ps(row0, _mm256_loadu_ps(rgba));
    } else {
        if (mask & 1u)
            _mm_storeu_ps(row0, _mm_loadu_ps(rgba));
        if (mask & 2u)
            _mm_storeu_ps(row0 + 4, _mm_loadu_ps(rgba + 4));
    }
    if ((mask & 12u) == 12u) {
        _mm256_storeu_ps(row1, _mm256_loadu_ps(rgba + 8));
    } else {
        if (mask & 4u)
            _mm_storeu_ps(row1, _mm_loadu_ps(rgba + 8));
        if (mask & 8u)
            _mm_storeu_ps(row1 + 4, _mm_loadu_ps(rgba + 12));
    }
}

void
ssimRowAvx2(const float *src, float *out, int n, int stride,
            const float *k, int taps, float wsum)
{
    const __m256 vws = _mm256_set1_ps(wsum);
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 acc = _mm256_setzero_ps();
        for (int t = 0; t < taps; ++t)
            acc = _mm256_add_ps(
                acc,
                _mm256_mul_ps(_mm256_set1_ps(k[t]),
                              _mm256_loadu_ps(src + i + t * stride)));
        _mm256_storeu_ps(out + i, _mm256_div_ps(acc, vws));
    }
    for (; i < n; ++i) {
        float acc = 0.0f;
        for (int t = 0; t < taps; ++t)
            acc += k[t] * src[i + t * stride];
        out[i] = acc / wsum;
    }
}

/**
 * 8 pixels per step: pixels i..i+3 fill the low 128-bit lanes and
 * i+4..i+7 the high ones, so the in-lane 4x4 transpose yields r/g/b/a
 * vectors in pixel order. Clamp and sums as lumaRowSse().
 */
void
lumaRowAvx2(const float *rgba, float *out, int n)
{
    const __m256 zero = _mm256_setzero_ps();
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 kr = _mm256_set1_ps(0.299f);
    const __m256 kg = _mm256_set1_ps(0.587f);
    const __m256 kb = _mm256_set1_ps(0.114f);
    auto pair = [](const float *lo, const float *hi) {
        return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm_loadu_ps(lo)),
                                    _mm_loadu_ps(hi), 1);
    };
    int i = 0;
    for (; i + 8 <= n; i += 8) {
        const float *p = rgba + 4 * i;
        const __m256 p0 = pair(p, p + 16);
        const __m256 p1 = pair(p + 4, p + 20);
        const __m256 p2 = pair(p + 8, p + 24);
        const __m256 p3 = pair(p + 12, p + 28);
        const __m256 rg01 = _mm256_unpacklo_ps(p0, p1); // r0 r1 g0 g1
        const __m256 rg23 = _mm256_unpacklo_ps(p2, p3); // r2 r3 g2 g3
        const __m256 ba01 = _mm256_unpackhi_ps(p0, p1); // b0 b1 a0 a1
        const __m256 ba23 = _mm256_unpackhi_ps(p2, p3); // b2 b3 a2 a3
        __m256 r = _mm256_shuffle_ps(rg01, rg23, _MM_SHUFFLE(1, 0, 1, 0));
        __m256 g = _mm256_shuffle_ps(rg01, rg23, _MM_SHUFFLE(3, 2, 3, 2));
        __m256 b = _mm256_shuffle_ps(ba01, ba23, _MM_SHUFFLE(1, 0, 1, 0));
        r = _mm256_min_ps(one, _mm256_max_ps(zero, r));
        g = _mm256_min_ps(one, _mm256_max_ps(zero, g));
        b = _mm256_min_ps(one, _mm256_max_ps(zero, b));
        _mm256_storeu_ps(out + i,
                         _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(kr, r),
                                                     _mm256_mul_ps(kg, g)),
                                       _mm256_mul_ps(kb, b)));
    }
    auto clamp01 = [](float v) {
        return v < 0.0f ? 0.0f : (1.0f < v ? 1.0f : v);
    };
    for (; i < n; ++i) {
        const float *p = rgba + 4 * i;
        out[i] = 0.299f * clamp01(p[0]) + 0.587f * clamp01(p[1]) +
            0.114f * clamp01(p[2]);
    }
}

} // namespace

const KernelOps &
avx2Kernels()
{
    static const KernelOps ops{accumulateAvx2, edgeQuadAvx2, fillColorAvx2,
                               fillDepthAvx2,  depthQuadAvx2,
                               scatterQuadAvx2, ssimRowAvx2, lumaRowAvx2,
                               8,              "avx2"};
    return ops;
}

} // namespace pargpu::simd
