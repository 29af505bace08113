/**
 * @file
 * The SoA kernel family behind the per-frame hot path: texel weight
 * accumulation, 2x2 edge-function rasterization, framebuffer fills /
 * depth tests / scatters, the SSIM separable-blur row reduction and the
 * luma conversion that feeds it.
 *
 * One accumulation shape serves all three filters: bilinear is a 4-slot
 * accumulation, trilinear an 8-slot one, and anisotropic filtering an
 * 8-slot accumulation over N lanes (one lane per AF sample). Each lane j
 * computes, per channel,
 *
 *     out[j] = sum over s in [0, slots) of color[s][j] * weight[s][j]
 *
 * accumulated from 0.0f in slot order with separate multiply and add —
 * the exact FP operation chain of the scalar reference
 * (TextureSampler::trilinearInto), so every tier is bit-identical. The
 * same discipline governs every kernel here: the scalar member is the
 * reference chain, the vector variants parallelize across lanes only,
 * and none uses FMA or reassociates.
 *
 * This header is deliberately free of intrinsics and of inline float
 * math: the AVX2 translation unit is compiled with -mavx2, and anything
 * inline shared with portable TUs would be an ODR hazard.
 */

#ifndef PARGPU_SIMD_KERNELS_HH
#define PARGPU_SIMD_KERNELS_HH

#include "simd/batch.hh"

namespace pargpu::simd
{

/**
 * Per-triangle constants for the 2x2 edge/interpolation kernel, copied
 * out of SetupTriangle once per rasterized triangle (plain floats so
 * this header stays independent of sim/).
 */
struct EdgeTri
{
    float ax, ay, bx, by, cx, cy; ///< Screen positions of v0/v1/v2.
    float inv_area;               ///< 1 / twice the signed area.
    float z0, z1, z2;             ///< Per-vertex depth.
    float iw0, iw1, iw2;          ///< Per-vertex 1/w.
    float uw0, uw1, uw2;          ///< Per-vertex u/w.
    float vw0, vw1, vw2;          ///< Per-vertex v/w.
};

/**
 * One 2x2 quad evaluated by edge_quad: lane i covers pixel
 * (qx + (i & 1), qy + (i >> 1)); coverage bit i is set iff that pixel
 * is inside the triangle and inside the walk window.
 */
struct EdgeQuadOut
{
    float u[4];
    float v[4];
    float depth[4];
    unsigned coverage;
};

/** One tier's kernel implementations (see activeKernels()). */
struct KernelOps
{
    /**
     * Accumulate @p slots texels per lane over lanes [0, lanes).
     *
     * Output arrays must hold kMaxLanes floats, 32-byte aligned; lanes
     * are processed in vector-width chunks, so up to the next multiple
     * of the width of pad lanes are read (callers zero their weights)
     * and written beyond @p lanes.
     */
    void (*accumulate)(const TexelBatch &tex, const WeightBatch &wgt,
                       int slots, int lanes, float *out_r, float *out_g,
                       float *out_b, float *out_a);

    /**
     * Evaluate the 2x2 quad at (qx, qy) against @p tri, windowed to
     * pixels [x0, x1] x [y0, y1] inclusive. All four lanes get
     * perspective-correct uv and depth (extrapolated outside the
     * triangle, so quad derivatives exist at partial coverage); the FP
     * chain per lane is rasterizeTriangle's original per-pixel loop.
     */
    void (*edge_quad)(const EdgeTri &tri, int qx, int qy, int x0, int y0,
                      int x1, int y1, EdgeQuadOut &out);

    /**
     * Fill @p pixels RGBA pixels starting at @p dst (4 floats each)
     * with the pattern rgba[0..3].
     */
    void (*fill_color)(float *dst, int pixels, const float *rgba);

    /** Fill @p count floats starting at @p dst with @p value. */
    void (*fill_depth)(float *dst, int count, float value);

    /**
     * Depth-test-and-write a fully covered 2x2 quad. @p row0 points at
     * the two depth-plane floats of the top row, @p row1 at the bottom
     * row's; lane i maps as in EdgeQuadOut. Returns the pass mask (bit
     * i set iff depth[i] < stored, in which case stored is updated) —
     * the exact compare-and-store of Framebuffer::depthTest per lane.
     */
    unsigned (*depth_quad)(float *row0, float *row1, const float *depth);

    /**
     * Scatter shaded quad colors into the color plane: for each set bit
     * i of @p mask, write rgba[4*i .. 4*i+3] to the pixel's 4 floats.
     * @p row0 / @p row1 point at the quad's top/bottom row pixels (8
     * floats each); lanes with a clear mask bit are never touched (the
     * tile-parallel pass relies on that for pixel disjointness).
     */
    void (*scatter_quad)(float *row0, float *row1, const float *rgba,
                         unsigned mask);

    /**
     * Separable-blur row reduction:
     *
     *     out[i] = (sum over t in [0, taps) of k[t] * src[i + t*stride])
     *              / wsum
     *
     * accumulated in ascending tap order from 0.0f — the scalar chain
     * of the SSIM blur loop. Serves the horizontal interior (stride 1)
     * and every vertical row (stride = image width, @p k sliced to the
     * rows that exist near the top/bottom edges).
     */
    void (*ssim_row)(const float *src, float *out, int n, int stride,
                     const float *k, int taps, float wsum);

    /**
     * Rec.601 luma of @p n interleaved RGBA pixels (Color4f layout):
     *
     *     out[i] = 0.299 * clamp01(r) + 0.587 * clamp01(g)
     *              + 0.114 * clamp01(b)
     *
     * with clamp01(v) = v < 0 ? 0 : (1 < v ? 1 : v) — Color4f::luma()'s
     * std::clamp, so NaN and -0 pass through — and the two adds in that
     * order. Feeds the SSIM rows straight from the images.
     */
    void (*luma_row)(const float *rgba, float *out, int n);

    int lanes;        ///< Vector width in samples.
    const char *name; ///< Matches tierName().
};

/** The scalar reference kernels (always available). */
const KernelOps &scalarKernels();

/** SSE kernels; defined only in -DPARGPU_SIMD=ON builds. */
const KernelOps &sseKernels();

/** AVX2 kernels; defined only in -DPARGPU_SIMD=ON builds. */
const KernelOps &avx2Kernels();

/** Kernels of the process-wide active tier (dispatch.hh). */
const KernelOps &activeKernels();

} // namespace pargpu::simd

#endif // PARGPU_SIMD_KERNELS_HH
