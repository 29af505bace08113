/**
 * @file
 * AF-SSIM: the paper's runtime-predictable reconstruction of SSIM for
 * anisotropic-filtering approximation (Section IV).
 *
 * The key identity (Eq. 4) is that the AF result Y of a pixel equals its
 * trilinear result X scaled by the mean ratio mu of AF's trilinear input
 * samples to X. Substituting Y = mu * X into the SSIM formula collapses it
 * to a function of mu alone (Eq. 5); mu is then approximated before any
 * texel is fetched, either from the anisotropy sample size N (Eq. 6) or
 * from the texel-distribution similarity Txds (Eq. 8-10).
 */

#ifndef PARGPU_CORE_AFSSIM_HH
#define PARGPU_CORE_AFSSIM_HH

#include <vector>

namespace pargpu
{

/** SSIM stability constant C1 = (0.01 * L)^2 with L = 1 (Section II-C). */
inline constexpr float kAfSsimC1 = 0.0001f;

/**
 * AF-SSIM as a function of the similarity degree mu (Eq. 5):
 * ((2 mu + C1) / (mu^2 + 1 + C1))^2.
 *
 * Equals 1 when mu == 1 (AF and TF identical) and decreases as mu departs
 * from 1.
 */
float afSsimFromSimilarity(float mu);

/**
 * Sample-area based prediction AF-SSIM(N) (Eq. 6): (2N / (N^2 + 1))^2 for
 * the anisotropy sample size N in [1, 16]. Monotonically decreasing in N;
 * equals 1 at N == 1.
 */
float afSsimFromSampleSize(int n);

/**
 * Shannon entropy (bits) of a probability vector (Eq. 8).
 * Zero-probability entries contribute nothing.
 *
 * @pre Entries are non-negative; callers normally pass a vector summing
 *      to 1, but the function does not renormalize.
 */
float entropyBits(const std::vector<float> &p);

/**
 * Texel distribution similarity (Eq. 9):
 * Txds = 1 - Entropy(P) / log2(N), clamped to [0, 1]. By convention
 * Txds = 1 when N == 1 (a single sample trivially shares its own texels).
 *
 * @param p  Probability of each distinct shared texel set.
 * @param n  Anisotropy sample size the probabilities were gathered over.
 */
float txds(const std::vector<float> &p, int n);

/**
 * txds() from an entropy computed elsewhere:
 * txds(p, n) == txdsFromEntropy(entropyBits(p), n), bit for bit. Lets
 * the PATU hash table score its count tags without building @p p.
 */
float txdsFromEntropy(float entropy_bits, int n);

/**
 * Distribution based prediction AF-SSIM(Txds) (Eq. 10):
 * (2 Txds / (Txds^2 + 1))^2.
 */
float afSsimFromTxds(float txds_value);

} // namespace pargpu

#endif // PARGPU_CORE_AFSSIM_HH
