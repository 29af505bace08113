#include "core/afssim.hh"

#include <algorithm>
#include <cmath>

#include "common/contract.hh"
#include "common/logging.hh"

namespace pargpu
{

float
afSsimFromSimilarity(float mu)
{
    float num = 2.0f * mu + kAfSsimC1;
    float den = mu * mu + 1.0f + kAfSsimC1;
    float r = num / den;
    return r * r;
}

float
afSsimFromSampleSize(int n)
{
    if (n < 1)
        panic("afSsimFromSampleSize: sample size must be >= 1");
    float fn = static_cast<float>(n);
    float r = 2.0f * fn / (fn * fn + 1.0f);
    return r * r;
}

float
entropyBits(const std::vector<float> &p)
{
    float e = 0.0f;
    for (float pi : p) {
        // count * (1/total) can land one ulp above 1.0 when count==total.
        PARGPU_CHECK_RANGE(pi, 0.0f, 1.0f + 1e-5f, "probability mass");
        if (pi > 0.0f)
            e -= pi * std::log2(pi);
    }
    PARGPU_INVARIANT(e >= -1e-4f, "entropy must be non-negative: ", e);
    return e;
}

float
txds(const std::vector<float> &p, int n)
{
    // N <= 1 needs no entropy: txdsFromEntropy() panics or returns 1.
    return txdsFromEntropy(n > 1 ? entropyBits(p) : 0.0f, n);
}

float
txdsFromEntropy(float entropy_bits, int n)
{
    if (n < 1)
        panic("txds: sample size must be >= 1");
    if (n == 1)
        return 1.0f;
    float norm = std::log2(static_cast<float>(n));
    float t = 1.0f - entropy_bits / norm;
    return std::clamp(t, 0.0f, 1.0f);
}

float
afSsimFromTxds(float txds_value)
{
    float t = std::clamp(txds_value, 0.0f, 1.0f);
    float r = 2.0f * t / (t * t + 1.0f);
    return r * r;
}

} // namespace pargpu
