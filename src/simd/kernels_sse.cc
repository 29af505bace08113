#include <emmintrin.h>
#include <xmmintrin.h>

#include "simd/kernels.hh"

namespace pargpu::simd
{

namespace
{

/**
 * 4 lanes per step. mulps + addps perform the same IEEE multiply and add
 * as the scalar chain lane-wise (no contraction to FMA is possible: the
 * intrinsics map to fixed instructions), so results are bit-identical to
 * accumulateScalar().
 */
void
accumulateSse(const TexelBatch &tex, const WeightBatch &wgt, int slots,
              int lanes, float *out_r, float *out_g, float *out_b,
              float *out_a)
{
    for (int j = 0; j < lanes; j += 4) {
        __m128 r = _mm_setzero_ps();
        __m128 g = _mm_setzero_ps();
        __m128 b = _mm_setzero_ps();
        __m128 a = _mm_setzero_ps();
        for (int s = 0; s < slots; ++s) {
            const __m128 w = _mm_load_ps(&wgt.w[s][j]);
            r = _mm_add_ps(r, _mm_mul_ps(_mm_load_ps(&tex.r[s][j]), w));
            g = _mm_add_ps(g, _mm_mul_ps(_mm_load_ps(&tex.g[s][j]), w));
            b = _mm_add_ps(b, _mm_mul_ps(_mm_load_ps(&tex.b[s][j]), w));
            a = _mm_add_ps(a, _mm_mul_ps(_mm_load_ps(&tex.a[s][j]), w));
        }
        _mm_store_ps(out_r + j, r);
        _mm_store_ps(out_g + j, g);
        _mm_store_ps(out_b + j, b);
        _mm_store_ps(out_a + j, a);
    }
}

/**
 * One 2x2 quad in 4 lanes. Every step is the scalar chain's operation —
 * subps/mulps/addps in the same order, divps for the reciprocal (IEEE
 * correctly rounded, so it equals the scalar 1.0f/x), cmpneqps keeping
 * the unordered semantics of the scalar != guard. The window test is
 * integer and computed outside the vector path, exactly as the scalar
 * kernel evaluates it.
 */
void
edgeQuadSse(const EdgeTri &tri, int qx, int qy, int x0, int y0, int x1,
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
fillColorSse(float *dst, int pixels, const float *rgba)
{
    const __m128 c = _mm_loadu_ps(rgba);
    for (int i = 0; i < pixels; ++i)
        _mm_storeu_ps(dst + 4 * i, c);
}

void
fillDepthSse(float *dst, int count, float value)
{
    const __m128 v = _mm_set1_ps(value);
    int i = 0;
    for (; i + 4 <= count; i += 4)
        _mm_storeu_ps(dst + i, v);
    for (; i < count; ++i)
        dst[i] = value;
}

/**
 * cmpltps is the scalar depth < stored compare per lane; the and/andnot
 * select stores the new depth on pass lanes and rewrites the original
 * bits on fail lanes (the quad is fully in-window, so every lane's pixel
 * belongs to this tile's owner).
 */
unsigned
depthQuadSse(float *row0, float *row1, const float *depth)
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
scatterQuadSse(float *row0, float *row1, const float *rgba, unsigned mask)
{
    if (mask & 1u)
        _mm_storeu_ps(row0, _mm_loadu_ps(rgba));
    if (mask & 2u)
        _mm_storeu_ps(row0 + 4, _mm_loadu_ps(rgba + 4));
    if (mask & 4u)
        _mm_storeu_ps(row1, _mm_loadu_ps(rgba + 8));
    if (mask & 8u)
        _mm_storeu_ps(row1 + 4, _mm_loadu_ps(rgba + 12));
}

void
ssimRowSse(const float *src, float *out, int n, int stride, const float *k,
           int taps, float wsum)
{
    const __m128 vws = _mm_set1_ps(wsum);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        __m128 acc = _mm_setzero_ps();
        for (int t = 0; t < taps; ++t)
            acc = _mm_add_ps(
                acc, _mm_mul_ps(_mm_set1_ps(k[t]),
                                _mm_loadu_ps(src + i + t * stride)));
        _mm_storeu_ps(out + i, _mm_div_ps(acc, vws));
    }
    for (; i < n; ++i) {
        float acc = 0.0f;
        for (int t = 0; t < taps; ++t)
            acc += k[t] * src[i + t * stride];
        out[i] = acc / wsum;
    }
}

/**
 * 4 pixels per step: a 4x4 transpose turns them into r/g/b/a vectors.
 * max(0, v) then min(1, v) is std::clamp's v < 0 ? 0 : (1 < v ? 1 : v)
 * lane-wise (maxps/minps return their second operand for NaN, and keep
 * -0), so results are bit-identical to lumaRowScalar().
 */
void
lumaRowSse(const float *rgba, float *out, int n)
{
    const __m128 zero = _mm_setzero_ps();
    const __m128 one = _mm_set1_ps(1.0f);
    const __m128 kr = _mm_set1_ps(0.299f);
    const __m128 kg = _mm_set1_ps(0.587f);
    const __m128 kb = _mm_set1_ps(0.114f);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const float *p = rgba + 4 * i;
        __m128 r = _mm_loadu_ps(p);
        __m128 g = _mm_loadu_ps(p + 4);
        __m128 b = _mm_loadu_ps(p + 8);
        __m128 a = _mm_loadu_ps(p + 12);
        _MM_TRANSPOSE4_PS(r, g, b, a);
        r = _mm_min_ps(one, _mm_max_ps(zero, r));
        g = _mm_min_ps(one, _mm_max_ps(zero, g));
        b = _mm_min_ps(one, _mm_max_ps(zero, b));
        _mm_storeu_ps(out + i,
                      _mm_add_ps(_mm_add_ps(_mm_mul_ps(kr, r),
                                            _mm_mul_ps(kg, g)),
                                 _mm_mul_ps(kb, b)));
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
sseKernels()
{
    static const KernelOps ops{accumulateSse, edgeQuadSse, fillColorSse,
                               fillDepthSse,  depthQuadSse, scatterQuadSse,
                               ssimRowSse,    lumaRowSse,   4,
                               "sse"};
    return ops;
}

} // namespace pargpu::simd
