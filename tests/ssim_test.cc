/**
 * @file
 * Unit tests for the SSIM quality layer (Eq. 1-2 of the paper).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/threadpool.hh"
#include "harness/runner.hh"
#include "quality/ssim.hh"
#include "simd/dispatch.hh"
#include "simd/kernels.hh"

using namespace pargpu;

namespace
{

Image
noiseImage(int w, int h, std::uint64_t seed)
{
    Image img(w, h);
    SplitMix64 rng(seed);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            float v = rng.nextFloat();
            img.at(x, y) = Color4f{v, v, v, 1.0f};
        }
    }
    return img;
}

Image
gradientImage(int w, int h)
{
    Image img(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            img.at(x, y) = Color4f{x / static_cast<float>(w),
                                   y / static_cast<float>(h), 0.5f, 1.0f};
    return img;
}

// --- Full-plane reference ----------------------------------------------
//
// The whole-frame SSIM pipeline ssimMap() replaced: a luma plane per
// image, three product planes, a separable two-pass blur of five full
// planes (horizontal edges scalar, interior and vertical rows through
// the dispatched ssim_row kernel), then the formula per pixel. Serial;
// the banded ssimMap() must match it bit for bit.

std::vector<float>
lumaPlane(const Image &img)
{
    std::vector<float> l(img.pixels().size());
    for (std::size_t i = 0; i < l.size(); ++i)
        l[i] = img.pixels()[i].luma();
    return l;
}

std::vector<float>
referenceKernel(int window, float sigma)
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

float
referenceWsum(const std::vector<float> &kernel, int half, int lo, int hi)
{
    float wsum = 0.0f;
    for (int d = lo; d <= hi; ++d)
        wsum += kernel[d + half];
    return wsum;
}

std::vector<float>
referenceBlur(const std::vector<float> &src, int w, int h,
              const std::vector<float> &kernel)
{
    const int window = static_cast<int>(kernel.size());
    const int half = window / 2;
    const simd::KernelOps &ops = simd::activeKernels();
    const float full_wsum = referenceWsum(kernel, half, -half, half);
    const int ix0 = std::min(half, w);
    const int ix1 = std::max(ix0, w - half);
    std::vector<float> tmp(src.size()), dst(src.size());
    for (int y = 0; y < h; ++y) {
        const float *row = &src[static_cast<std::size_t>(y) * w];
        float *out = &tmp[static_cast<std::size_t>(y) * w];
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
    for (int y = 0; y < h; ++y) {
        int lo = y - half < 0 ? -y : -half;
        int hi = y + half >= h ? h - 1 - y : half;
        const float wsum = lo == -half && hi == half
            ? full_wsum : referenceWsum(kernel, half, lo, hi);
        ops.ssim_row(&tmp[static_cast<std::size_t>(y + lo) * w],
                     &dst[static_cast<std::size_t>(y) * w], w, w,
                     kernel.data() + (lo + half), hi - lo + 1, wsum);
    }
    return dst;
}

std::vector<float>
referenceSsimMap(const Image &x, const Image &y, const SsimParams &params)
{
    const int w = x.width();
    const int h = x.height();
    const std::vector<float> lx = lumaPlane(x);
    const std::vector<float> ly = lumaPlane(y);
    const std::size_t n = lx.size();
    std::vector<float> xx(n), yy(n), xy(n);
    for (std::size_t i = 0; i < n; ++i) {
        xx[i] = lx[i] * lx[i];
        yy[i] = ly[i] * ly[i];
        xy[i] = lx[i] * ly[i];
    }
    const std::vector<float> kernel =
        referenceKernel(params.window, params.sigma);
    const std::vector<float> mu_x = referenceBlur(lx, w, h, kernel);
    const std::vector<float> mu_y = referenceBlur(ly, w, h, kernel);
    const std::vector<float> m_xx = referenceBlur(xx, w, h, kernel);
    const std::vector<float> m_yy = referenceBlur(yy, w, h, kernel);
    const std::vector<float> m_xy = referenceBlur(xy, w, h, kernel);
    const float c1 = (params.k1 * params.range) * (params.k1 * params.range);
    const float c2 = (params.k2 * params.range) * (params.k2 * params.range);
    std::vector<float> map(n);
    for (std::size_t i = 0; i < n; ++i) {
        float mx = mu_x[i], my = mu_y[i];
        float var_x = m_xx[i] - mx * mx;
        float var_y = m_yy[i] - my * my;
        float cov = m_xy[i] - mx * my;
        float num = (2.0f * mx * my + c1) * (2.0f * cov + c2);
        float den = (mx * mx + my * my + c1) * (var_x + var_y + c2);
        map[i] = num / den;
    }
    return map;
}

/** Serial row-major mean of a map, the reduction mssim() must keep. */
double
referenceMean(const std::vector<float> &map)
{
    double sum = 0.0;
    for (float v : map)
        sum += v;
    return map.empty() ? 0.0 : sum / static_cast<double>(map.size());
}

/** Index of the first bitwise difference, or -1 when equal. */
long
firstMismatch(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
            return static_cast<long>(i);
    return -1;
}

/** Runnable dispatch tiers on this build and CPU (scalar always). */
std::vector<simd::SimdTier>
runnableTiers()
{
    std::vector<simd::SimdTier> tiers{simd::SimdTier::Scalar};
    const auto top = static_cast<int>(simd::detectTier());
    if (top >= static_cast<int>(simd::SimdTier::Sse))
        tiers.push_back(simd::SimdTier::Sse);
    if (top >= static_cast<int>(simd::SimdTier::Avx2))
        tiers.push_back(simd::SimdTier::Avx2);
    return tiers;
}

/**
 * A color image and a distorted copy: independent channels, some
 * values outside [0, 1] so luma's clamp matters, and a distortion that
 * keeps the pair correlated so the map is not flat.
 */
std::pair<Image, Image>
colorPair(int w, int h, std::uint64_t seed)
{
    Image a(w, h), b(w, h);
    SplitMix64 rng(seed);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            Color4f c{rng.nextFloat() * 1.2f - 0.1f, rng.nextFloat(),
                      rng.nextFloat(), 1.0f};
            a.at(x, y) = c;
            float n = 0.3f * (rng.nextFloat() - 0.5f);
            b.at(x, y) = Color4f{c.r + n, c.g - n, c.b, 1.0f};
        }
    }
    return {a, b};
}

struct OracleCase
{
    int w, h;
    int window;
    float sigma;
};

} // namespace

TEST(SsimTest, IdenticalImagesScoreOne)
{
    Image a = noiseImage(64, 48, 1);
    EXPECT_NEAR(mssim(a, a), 1.0, 1e-6);
}

TEST(SsimTest, SymmetricInArguments)
{
    Image a = noiseImage(48, 48, 1);
    Image b = noiseImage(48, 48, 2);
    EXPECT_NEAR(mssim(a, b), mssim(b, a), 1e-9);
}

TEST(SsimTest, BoundedAboveByOne)
{
    Image a = gradientImage(64, 64);
    Image b = noiseImage(64, 64, 3);
    double v = mssim(a, b);
    EXPECT_LE(v, 1.0);
    EXPECT_GE(v, -1.0);
}

TEST(SsimTest, IndependentNoiseScoresLow)
{
    Image a = noiseImage(96, 96, 10);
    Image b = noiseImage(96, 96, 20);
    EXPECT_LT(mssim(a, b), 0.2);
}

TEST(SsimTest, SmallDistortionScoresHigherThanLarge)
{
    Image ref = gradientImage(64, 64);
    Image small_d = ref, large_d = ref;
    SplitMix64 rng(5);
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            float n = rng.nextFloat() - 0.5f;
            Color4f &s = small_d.at(x, y);
            s.r = std::clamp(s.r + 0.02f * n, 0.0f, 1.0f);
            Color4f &l = large_d.at(x, y);
            l.r = std::clamp(l.r + 0.4f * n, 0.0f, 1.0f);
        }
    }
    EXPECT_GT(mssim(ref, small_d), mssim(ref, large_d));
}

TEST(SsimTest, BlurredImageScoresBelowIdentical)
{
    // Blurring is exactly the artifact disabling AF introduces; SSIM must
    // see it.
    Image ref = noiseImage(64, 64, 7);
    Image blur(64, 64);
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            Color4f acc{0, 0, 0, 0};
            int cnt = 0;
            for (int dy = -1; dy <= 1; ++dy) {
                for (int dx = -1; dx <= 1; ++dx) {
                    int sx = std::clamp(x + dx, 0, 63);
                    int sy = std::clamp(y + dy, 0, 63);
                    acc += ref.at(sx, sy);
                    ++cnt;
                }
            }
            blur.at(x, y) = acc * (1.0f / cnt);
        }
    }
    double v = mssim(ref, blur);
    EXPECT_LT(v, 0.9);
    EXPECT_GT(v, 0.0);
}

TEST(SsimTest, MapHasOneValuePerPixel)
{
    Image a = noiseImage(32, 24, 1);
    Image b = noiseImage(32, 24, 2);
    std::vector<float> map = ssimMap(a, b);
    EXPECT_EQ(map.size(), 32u * 24u);
}

TEST(SsimTest, MapLocalizesDistortion)
{
    // Distort only the right half; the left half's SSIM stays near 1.
    Image a = gradientImage(64, 64);
    Image b = a;
    SplitMix64 rng(9);
    for (int y = 0; y < 64; ++y) {
        for (int x = 32; x < 64; ++x) {
            b.at(x, y).r =
                std::clamp(b.at(x, y).r + rng.nextFloat() - 0.5f,
                           0.0f, 1.0f);
        }
    }
    std::vector<float> map = ssimMap(a, b);
    double left = 0.0, right = 0.0;
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 20; ++x)
            left += map[y * 64 + x];
        for (int x = 44; x < 64; ++x)
            right += map[y * 64 + x];
    }
    EXPECT_GT(left / (64 * 20), right / (64 * 20) + 0.2);
}

TEST(SsimTest, MssimOfMapAveragesCorrectly)
{
    EXPECT_DOUBLE_EQ(mssimOfMap({1.0f, 0.5f, 0.0f}),
                     0.5);
    EXPECT_DOUBLE_EQ(mssimOfMap({}), 0.0);
}

TEST(SsimTest, MapImageIsLighterWhereSimilar)
{
    std::vector<float> map = {1.0f, 0.0f};
    Image vis = ssimMapImage(map, 2, 1);
    EXPECT_GT(vis.at(0, 0).r, vis.at(1, 0).r);
}

TEST(SsimDeathTest, MismatchedDimensionsFatal)
{
    Image a(8, 8), b(8, 4);
    EXPECT_EXIT(mssim(a, b), testing::ExitedWithCode(1), "differ");
}

TEST(SsimDeathTest, EvenWindowRejected)
{
    Image a(8, 8), b(8, 8);
    SsimParams p;
    p.window = 10;
    EXPECT_EXIT(ssimMap(a, b, p), testing::ExitedWithCode(1), "odd");
}

TEST(MseTest, ZeroForIdentical)
{
    Image a = noiseImage(16, 16, 1);
    EXPECT_DOUBLE_EQ(mse(a, a), 0.0);
}

TEST(MseTest, KnownDifference)
{
    Image a(4, 4, Color4f{0, 0, 0, 1});
    Image b(4, 4, Color4f{1, 1, 1, 1});
    // Luma difference is 1 everywhere.
    EXPECT_NEAR(mse(a, b), 1.0, 1e-6);
}

TEST(PsnrTest, InfiniteForIdentical)
{
    Image a = gradientImage(16, 16);
    EXPECT_TRUE(std::isinf(psnr(a, a)));
}

TEST(PsnrTest, HigherForSmallerError)
{
    Image ref(16, 16, Color4f{0.5f, 0.5f, 0.5f, 1});
    Image near_img = ref;
    Image far_img = ref;
    near_img.at(0, 0).r = 0.6f;
    far_img.at(0, 0).r = 1.0f;
    EXPECT_GT(psnr(ref, near_img), psnr(ref, far_img));
}

// --- Banded ssimMap() against the full-plane reference ------------------

class SsimOracleTest : public testing::TestWithParam<OracleCase>
{
};

TEST_P(SsimOracleTest, BitIdenticalAtEveryTierAndThreadCount)
{
    const OracleCase c = GetParam();
    SsimParams params;
    params.window = c.window;
    params.sigma = c.sigma;
    const auto [a, b] = colorPair(c.w, c.h, 17 + c.w * 131 + c.h);

    const simd::SimdTier saved = simd::activeTier();
    for (simd::SimdTier tier : runnableTiers()) {
        simd::setActiveTier(tier);
        const std::vector<float> ref = referenceSsimMap(a, b, params);
        const double ref_mean = referenceMean(ref);
        for (unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(simd::tierName(tier)) + ", " +
                         std::to_string(threads) + " threads");
            ThreadPool::setDefaultThreads(threads);
            EXPECT_EQ(firstMismatch(ssimMap(a, b, params), ref), -1);
            const double m = mssim(a, b, params);
            EXPECT_EQ(std::memcmp(&m, &ref_mean, sizeof m), 0)
                << m << " vs " << ref_mean;
        }
    }
    ThreadPool::setDefaultThreads(0);
    simd::setActiveTier(saved);
}

// 1x1 and 3x7: smaller than the window on both axes. 7x40 and 40x7:
// narrower / shorter than the 11-tap window. 33x64: whole bands only.
// 50x69: a partial last band (69 = 2 x 32 + 5). 160x128 and 1280x1024:
// the simulator's test and W1 frame sizes. The window 5 and 1 cases
// move the halo off its default 5 rows.
INSTANTIATE_TEST_SUITE_P(
    Sizes, SsimOracleTest,
    testing::Values(OracleCase{1, 1, 11, 1.5f}, OracleCase{3, 7, 11, 1.5f},
                    OracleCase{7, 40, 11, 1.5f},
                    OracleCase{40, 7, 11, 1.5f},
                    OracleCase{33, 64, 11, 1.5f},
                    OracleCase{50, 69, 11, 1.5f},
                    OracleCase{50, 69, 5, 0.8f}, OracleCase{9, 35, 1, 1.5f},
                    OracleCase{160, 128, 11, 1.5f},
                    OracleCase{1280, 1024, 11, 1.5f}),
    [](const testing::TestParamInfo<OracleCase> &info) {
        return std::to_string(info.param.w) + "x" +
               std::to_string(info.param.h) + "_w" +
               std::to_string(info.param.window);
    });

TEST(SsimTest, MssimSumsTheMapSeriallyInRowMajorOrder)
{
    // Top half identical (SSIM 1), bottom half independent noise (SSIM
    // near 0): the running sum is large when the tiny values arrive, so
    // the double sum rounds and depends on its order. The band-by-band
    // order must give a different value, or the data proves nothing.
    const int w = 320, h = 256;
    Image a = noiseImage(w, h, 31);
    Image b = a;
    const Image other = noiseImage(w, h, 32);
    for (int y = h / 2; y < h; ++y)
        for (int x = 0; x < w; ++x)
            b.at(x, y) = other.at(x, y);
    ThreadPool::setDefaultThreads(4);
    const std::vector<float> map = ssimMap(a, b);
    const double got = mssim(a, b);
    ThreadPool::setDefaultThreads(0);

    double banded = 0.0;
    const std::size_t band = static_cast<std::size_t>(w) * 32;
    for (std::size_t lo = 0; lo < map.size(); lo += band) {
        double part = 0.0;
        for (std::size_t i = lo; i < std::min(map.size(), lo + band); ++i)
            part += map[i];
        banded += part;
    }
    banded /= static_cast<double>(map.size());
    const double serial = referenceMean(map);
    ASSERT_NE(serial, banded);
    EXPECT_EQ(std::memcmp(&got, &serial, sizeof got), 0)
        << got << " vs " << serial;
}

TEST(MseTest, EqualsPlaneFormula)
{
    for (auto [w, h] : {std::pair{1, 1}, std::pair{7, 3},
                        std::pair{160, 128}}) {
        const auto [a, b] = colorPair(w, h, 23 + w);
        const std::vector<float> lx = lumaPlane(a);
        const std::vector<float> ly = lumaPlane(b);
        double acc = 0.0;
        for (std::size_t i = 0; i < lx.size(); ++i) {
            double d = static_cast<double>(lx[i]) - ly[i];
            acc += d * d;
        }
        const double plane_mse = acc / static_cast<double>(lx.size());
        const double plane_psnr = 10.0 * std::log10(1.0 / plane_mse);
        const double got_mse = mse(a, b);
        const double got_psnr = psnr(a, b);
        EXPECT_EQ(std::memcmp(&got_mse, &plane_mse, sizeof got_mse), 0)
            << w << "x" << h;
        EXPECT_EQ(std::memcmp(&got_psnr, &plane_psnr, sizeof got_psnr), 0)
            << w << "x" << h;
    }
}

TEST(MssimAgainstTest, EqualsFrameOrderMeanOfPerFrameMssim)
{
    // Identical pairs (MSSIM 1) among independent noise pairs (MSSIM
    // near 0, each a different magnitude), so the sum depends on its
    // order; reversing it must change the mean, or the data proves
    // nothing.
    RunResult run;
    std::vector<Image> reference;
    for (int f = 0; f < 6; ++f) {
        reference.push_back(noiseImage(45, 70, 110 + f));
        run.images.push_back(f % 3 == 0 ? reference.back()
                                        : noiseImage(45, 70, 210 + f));
    }
    for (unsigned threads : {1u, 4u}) {
        ThreadPool::setDefaultThreads(threads);
        std::vector<double> per;
        for (std::size_t f = 0; f < run.images.size(); ++f)
            per.push_back(mssim(reference[f], run.images[f]));
        const double got = run.mssimAgainst(reference);
        ThreadPool::setDefaultThreads(0);

        double acc = 0.0, reversed = 0.0;
        for (std::size_t f = 0; f < per.size(); ++f) {
            acc += per[f];
            reversed += per[per.size() - 1 - f];
        }
        const double want = acc / static_cast<double>(per.size());
        ASSERT_NE(want, reversed / static_cast<double>(per.size()));
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << threads << " threads: " << got << " vs " << want;
    }
}
