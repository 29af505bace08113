// The one kernel source. src/simd/CMakeLists.txt compiles it once per
// tier, each build with its own ISA flags and a define naming its table:
// PARGPU_KERNEL_TABLE (scalarKernels, sseKernels or avx2Kernels) and
// PARGPU_KERNEL_NAME. Every loop below runs the
// lane index innermost so the vector builds can auto-vectorize across
// lanes, and every lane keeps the reference FP chain: start from 0.0f,
// add in tap order, separate multiply and add (all builds pin
// -ffp-contract=off; the compiler never reassociates without
// -ffast-math). The AVX2 build is compiled with -mavx2, so this TU calls
// no inline function with external linkage — everything lives in the
// anonymous namespace below — lest AVX code leak into portable callers.
#include "simd/kernels.hh"

#if !defined(PARGPU_KERNEL_TABLE) || !defined(PARGPU_KERNEL_NAME)
#error "kernels.cc is built per tier by src/simd/CMakeLists.txt"
#endif

namespace pargpu::simd
{

namespace
{

/**
 * The per-pixel loop body that lived inline in rasterizeTriangle(), one
 * lane per pixel of the quad. The reciprocal is taken unconditionally
 * and then selected (an exact-zero 1/w gives 0, as before), and the
 * coverage tests combine with & rather than &&, so no lane's arithmetic
 * is conditional; the mask bits are packed after the lane loop.
 */
void
edgeQuad(const EdgeTri &tri, int qx, int qy, int x0, int y0, int x1,
         int y1, EdgeQuadOut &out)
{
    unsigned covered[4];
    for (int i = 0; i < 4; ++i) {
        const int px = qx + (i & 1);
        const int py = qy + (i >> 1);
        const float cx = px + 0.5f;
        const float cy = py + 0.5f;

        const float e0 = (cx - tri.bx) * (tri.cy - tri.by) -
            (cy - tri.by) * (tri.cx - tri.bx);
        const float e1 = (cx - tri.cx) * (tri.ay - tri.cy) -
            (cy - tri.cy) * (tri.ax - tri.cx);
        const float w0 = e0 * tri.inv_area;
        const float w1 = e1 * tri.inv_area;
        const float w2 = 1.0f - w0 - w1;

        const float inv_w = w0 * tri.iw0 + w1 * tri.iw1 + w2 * tri.iw2;
        const float u_w = w0 * tri.uw0 + w1 * tri.uw1 + w2 * tri.uw2;
        const float v_w = w0 * tri.vw0 + w1 * tri.vw1 + w2 * tri.vw2;
        // Exact-zero guard against dividing by an extrapolated 1/w of 0;
        // near-zero values are valid and must divide.
        const float q = 1.0f / inv_w;
        const float rcp = // pargpu-lint: allow(float-eq)
            inv_w != 0.0f ? q : 0.0f;
        out.u[i] = u_w * rcp;
        out.v[i] = v_w * rcp;
        out.depth[i] = w0 * tri.z0 + w1 * tri.z1 + w2 * tri.z2;

        const bool inside = (w0 >= 0.0f) & (w1 >= 0.0f) & (w2 >= 0.0f);
        const bool in_window =
            (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1);
        covered[i] = inside & in_window;
    }
    out.coverage =
        covered[0] | covered[1] << 1 | covered[2] << 2 | covered[3] << 3;
}

void
fillColor(float *dst, int pixels, const float *rgba)
{
    const float r = rgba[0], g = rgba[1], b = rgba[2], a = rgba[3];
    for (int i = 0; i < pixels; ++i) {
        dst[4 * i + 0] = r;
        dst[4 * i + 1] = g;
        dst[4 * i + 2] = b;
        dst[4 * i + 3] = a;
    }
}

void
fillDepth(float *dst, int count, float value)
{
    for (int i = 0; i < count; ++i)
        dst[i] = value;
}

/**
 * The Framebuffer::depthTest compare-and-store, per lane. Fail lanes
 * store their original bits back, which is safe: the quad is fully
 * in-window, so every pixel belongs to the calling tile.
 */
unsigned
depthQuad(float *row0, float *row1, const float *depth)
{
    const float d[4] = {depth[0], depth[1], depth[2], depth[3]};
    const float stored[4] = {row0[0], row0[1], row1[0], row1[1]};
    float next[4];
    unsigned pass[4];
    for (int i = 0; i < 4; ++i) {
        pass[i] = d[i] < stored[i];
        next[i] = pass[i] ? d[i] : stored[i];
    }
    row0[0] = next[0];
    row0[1] = next[1];
    row1[0] = next[2];
    row1[1] = next[3];
    return pass[0] | pass[1] << 1 | pass[2] << 2 | pass[3] << 3;
}

void
scatterQuad(float *row0, float *row1, const float *__restrict rgba,
            unsigned mask)
{
    for (int i = 0; i < 4; ++i) {
        if (!(mask & (1u << i)))
            continue;
        float *px = (i < 2 ? row0 : row1) + 4 * (i & 1);
        px[0] = rgba[4 * i + 0];
        px[1] = rgba[4 * i + 1];
        px[2] = rgba[4 * i + 2];
        px[3] = rgba[4 * i + 3];
    }
}

/**
 * The SSIM blur chain per output: 0.0f, then k[t] * src in ascending
 * tap order, then one divide. Tap-outer, so each tap is one pass over
 * the row.
 */
void
ssimRow(const float *__restrict src, float *__restrict out, int n,
        int stride, const float *__restrict k, int taps, float wsum)
{
    for (int i = 0; i < n; ++i)
        out[i] = 0.0f;
    for (int t = 0; t < taps; ++t) {
        const float kt = k[t];
        const float *row = src + t * stride;
        for (int i = 0; i < n; ++i)
            out[i] += kt * row[i];
    }
    for (int i = 0; i < n; ++i)
        out[i] /= wsum;
}

/**
 * Color4f::luma(): each channel clamped to [0, 1] — max with 0, then min
 * with 1, which is std::clamp's v < 0 ? 0 : (1 < v ? 1 : v) bit for bit
 * (NaN and -0 pass through) — then the weighted sum, adds in that order.
 */
void
lumaRow(const float *__restrict rgba, float *__restrict out, int n)
{
    auto clamp01 = [](float v) {
        const float lo = v < 0.0f ? 0.0f : v;
        return 1.0f < lo ? 1.0f : lo;
    };
    for (int i = 0; i < n; ++i) {
        const float *p = rgba + 4 * i;
        out[i] = 0.299f * clamp01(p[0]) + 0.587f * clamp01(p[1]) +
            0.114f * clamp01(p[2]);
    }
}

} // namespace

const KernelOps &
PARGPU_KERNEL_TABLE()
{
    static const KernelOps ops{edgeQuad,    fillColor,   fillDepth,
                               depthQuad,   scatterQuad, ssimRow,
                               lumaRow,     PARGPU_KERNEL_NAME};
    return ops;
}

} // namespace pargpu::simd
