#include "quality/ssim.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/contract.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"
#include "common/tracing.hh"
#include "simd/kernels.hh"

namespace pargpu
{

namespace
{

// Normalized 1-D Gaussian kernel of odd diameter.
std::vector<float>
gaussianKernel(int window, float sigma)
{
    std::vector<float> k(window);
    int half = window / 2;
    float sum = 0.0f;
    for (int i = 0; i < window; ++i) {
        float d = static_cast<float>(i - half);
        k[i] = std::exp(-(d * d) / (2.0f * sigma * sigma));
        sum += k[i];
    }
    for (float &v : k)
        v /= sum;
    return k;
}

/**
 * Output rows per band. Each band recomputes the horizontal pass over
 * its (window - 1)-row halo, so taller bands waste less; 32 rows of a
 * 1280-pixel frame keep a band's five planes near 1 MiB.
 */
constexpr int kBandRows = 32;

/**
 * Truncated-kernel weight sum for taps [lo, hi]: the ascending-d
 * accumulation order of the original per-pixel loop, so the value is
 * bit-identical to what that loop computed for every pixel sharing the
 * same truncation.
 */
float
truncatedWsum(const std::vector<float> &kernel, int half, int lo, int hi)
{
    float wsum = 0.0f;
    for (int d = lo; d <= hi; ++d)
        wsum += kernel[d + half];
    return wsum;
}

// luma_row reads a row of Color4f as interleaved RGBA floats.
static_assert(sizeof(Color4f) == 4 * sizeof(float));

/** The five quantities SSIM blurs: both lumas and their products. */
constexpr int kMoments = 5;

/**
 * One participating thread's scratch, reused for every band it claims:
 * the moments of the current input row, their horizontal blur over the
 * band plus its halo, and their full blur at the current output row.
 */
struct BandScratch
{
    std::vector<float> in;      ///< kMoments rows of width w.
    std::vector<float> horiz;   ///< kMoments band-plus-halo planes.
    std::vector<float> blurred; ///< kMoments rows of width w.
};

/**
 * Horizontal pass of one row, with edge truncation + renormalization.
 * Interior pixels (full kernel support) are one dispatched ssim_row
 * call: ascending-tap chain + one divide per pixel, the scalar loop's
 * arithmetic vectorized across pixels. Edge pixels keep the scalar
 * loop, whose chain the scalar kernel tier mirrors exactly.
 */
void
blurRow(const float *row, float *out, int w,
        const std::vector<float> &kernel, const simd::KernelOps &ops,
        float full_wsum)
{
    const int window = static_cast<int>(kernel.size());
    const int half = window / 2;
    const int ix0 = std::min(half, w);
    const int ix1 = std::max(ix0, w - half);
    auto edge = [&](int x) {
        float acc = 0.0f, wsum = 0.0f;
        int lo = x - half < 0 ? -x : -half;
        int hi = x + half >= w ? w - 1 - x : half;
        for (int d = lo; d <= hi; ++d) {
            float kv = kernel[d + half];
            acc += kv * row[x + d];
            wsum += kv;
        }
        out[x] = acc / wsum;
    };
    for (int x = 0; x < ix0; ++x)
        edge(x);
    if (ix1 > ix0)
        ops.ssim_row(row + ix0 - half, out + ix0, ix1 - ix0, 1,
                     kernel.data(), window, full_wsum);
    for (int x = ix1; x < w; ++x)
        edge(x);
}

} // namespace

// Separable Gaussian blur with edge truncation + renormalization. Because
// the 2-D kernel is a separable product, renormalizing each axis
// independently equals renormalizing the truncated 2-D kernel.
//
// The frame is cut into bands of kBandRows output rows, all scored by
// one pool dispatch. A band reads luma straight from both images (the
// luma_row kernel, Color4f::luma() bit for bit) for its rows plus the
// half-window halo above and below, runs the horizontal pass of the
// five moments into its thread's scratch, then the vertical pass and
// the SSIM formula one output row at a time.
// Every pixel sees the arithmetic of a whole-frame two-pass blur (same
// kernel calls, tap slices and truncated sums), and bands write
// disjoint rows of the map, so the map is bit-identical at any thread
// count and band height.
std::vector<float>
ssimMap(const Image &x, const Image &y, const SsimParams &params)
{
    if (x.width() != y.width() || x.height() != y.height())
        fatal("ssimMap: image dimensions differ");
    if (params.window < 1 || params.window % 2 == 0)
        fatal("ssimMap: window must be odd and positive");
    PARGPU_TRACE_SCOPE_F("quality", "ssim", x.height());

    const int w = x.width();
    const int h = x.height();
    const std::size_t n = static_cast<std::size_t>(w) * h;
    std::vector<float> map(n);
    PARGPU_ASSERT(params.sigma > 0.0f,
                  "Gaussian sigma must be positive: ", params.sigma);
    if (n == 0)
        return map;

    const std::vector<float> kernel =
        gaussianKernel(params.window, params.sigma);
    const int half = params.window / 2;
    const simd::KernelOps &ops = simd::activeKernels();
    const float full_wsum = truncatedWsum(kernel, half, -half, half);
    const float c1 = (params.k1 * params.range) * (params.k1 * params.range);
    const float c2 = (params.k2 * params.range) * (params.k2 * params.range);

    const int bands = (h + kBandRows - 1) / kBandRows;
    const std::size_t stride = static_cast<std::size_t>(w);
    const std::size_t plane =
        static_cast<std::size_t>(std::min(h, kBandRows + 2 * half)) * stride;

    auto scoreBand = [&](int band, BandScratch &s) {
        const int y0 = band * kBandRows;
        const int y1 = std::min(h, y0 + kBandRows);
        const int r0 = std::max(0, y0 - half);
        const int r1 = std::min(h, y1 + half);

        // Horizontal pass over the band and its halo.
        for (int r = r0; r < r1; ++r) {
            float *lx = &s.in[0], *ly = &s.in[stride];
            float *xx = &s.in[2 * stride], *yy = &s.in[3 * stride];
            float *xy = &s.in[4 * stride];
            const std::size_t first = static_cast<std::size_t>(r) * stride;
            ops.luma_row(&x.pixels()[first].r, lx, w);
            ops.luma_row(&y.pixels()[first].r, ly, w);
            for (int i = 0; i < w; ++i) {
                xx[i] = lx[i] * lx[i];
                yy[i] = ly[i] * ly[i];
                xy[i] = lx[i] * ly[i];
            }
            const std::size_t at = static_cast<std::size_t>(r - r0) * stride;
            for (int m = 0; m < kMoments; ++m)
                blurRow(&s.in[m * stride], &s.horiz[m * plane + at], w,
                        kernel, ops, full_wsum);
        }

        // Vertical pass and the SSIM formula, one output row at a time:
        // the truncation is uniform across a row, so each moment's row
        // is one kernel call over the surviving tap slice.
        for (int oy = y0; oy < y1; ++oy) {
            const int lo = oy - half < 0 ? -oy : -half;
            const int hi = oy + half >= h ? h - 1 - oy : half;
            const float wsum = lo == -half && hi == half
                ? full_wsum : truncatedWsum(kernel, half, lo, hi);
            const std::size_t src =
                static_cast<std::size_t>(oy + lo - r0) * stride;
            for (int m = 0; m < kMoments; ++m)
                ops.ssim_row(&s.horiz[m * plane + src],
                             &s.blurred[m * stride], w, w,
                             kernel.data() + (lo + half), hi - lo + 1, wsum);

            const float *mu_x = &s.blurred[0], *mu_y = &s.blurred[stride];
            const float *m_xx = &s.blurred[2 * stride];
            const float *m_yy = &s.blurred[3 * stride];
            const float *m_xy = &s.blurred[4 * stride];
            float *out = &map[static_cast<std::size_t>(oy) * stride];
            for (int i = 0; i < w; ++i) {
                float mx = mu_x[i], my = mu_y[i];
                float var_x = m_xx[i] - mx * mx;
                float var_y = m_yy[i] - my * my;
                float cov = m_xy[i] - mx * my;
                float num = (2.0f * mx * my + c1) * (2.0f * cov + c2);
                float den = (mx * mx + my * my + c1) * (var_x + var_y + c2);
                out[i] = num / den;
            }
        }
    };

    // One dispatch over one slot per thread: a slot claims bands until
    // none are left and allocates its scratch on its first claim, so
    // scratch is per participating thread, not per band (a nested call
    // runs the slots inline, and the first one claims every band).
    const unsigned slots =
        std::min(ThreadPool::defaultThreads(), static_cast<unsigned>(bands));
    std::atomic<int> next{0};
    ThreadPool::run(static_cast<std::size_t>(slots), 1, [&](std::size_t) {
        BandScratch s;
        for (int band; (band = next.fetch_add(1)) < bands;) {
            if (s.in.empty()) {
                s.in.resize(kMoments * stride);
                s.horiz.resize(kMoments * plane);
                s.blurred.resize(kMoments * stride);
            }
            scoreBand(band, s);
        }
    });
    return map;
}

double
mssim(const Image &x, const Image &y, const SsimParams &params)
{
    return mssimOfMap(ssimMap(x, y, params));
}

double
mssimOfMap(const std::vector<float> &map)
{
    if (map.empty())
        return 0.0;
    double sum = 0.0;
    for (float v : map)
        sum += v;
    double m = sum / static_cast<double>(map.size());
    // SSIM of real image pairs is bounded by [-1, 1]; our rendered pairs
    // stay non-negative but anticorrelated windows are legal, so contract
    // the mathematical bound (with one ulp of slack for the summation).
    PARGPU_CHECK_RANGE(m, -1.0 - 1e-6, 1.0 + 1e-6, "MSSIM bound");
    return m;
}

Image
ssimMapImage(const std::vector<float> &map, int width, int height)
{
    if (map.size() != static_cast<std::size_t>(width) * height)
        fatal("ssimMapImage: map size does not match dimensions");
    Image img(width, height);
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            float v = map[static_cast<std::size_t>(y) * width + x];
            float g = v < 0.0f ? 0.0f : v;
            img.at(x, y) = Color4f{g, g, g, 1.0f};
        }
    }
    return img;
}

double
mse(const Image &x, const Image &y)
{
    if (x.width() != y.width() || x.height() != y.height())
        fatal("mse: image dimensions differ");
    const std::vector<Color4f> &px = x.pixels();
    const std::vector<Color4f> &py = y.pixels();
    double acc = 0.0;
    for (std::size_t i = 0; i < px.size(); ++i) {
        double d = static_cast<double>(px[i].luma()) - py[i].luma();
        acc += d * d;
    }
    return px.empty() ? 0.0 : acc / static_cast<double>(px.size());
}

double
psnr(const Image &x, const Image &y)
{
    double m = mse(x, y);
    if (m <= 0.0)
        return std::numeric_limits<double>::infinity();
    return 10.0 * std::log10(1.0 / m);
}

} // namespace pargpu
