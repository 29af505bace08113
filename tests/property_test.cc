/**
 * @file
 * Property-based tests: parameterized sweeps over anisotropy ratios,
 * thresholds and sample distributions, checking the invariants the PATU
 * design relies on.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/afssim.hh"
#include "core/hashtable.hh"
#include "core/patu.hh"
#include "common/rng.hh"
#include "texture/procedural.hh"
#include "texture/sampler.hh"

using namespace pargpu;

// ---------------------------------------------------------------------
// Anisotropy sweep: for any derivative pair, the sampler must maintain
// the structural invariants of Section IV-A.
class AnisotropySweep : public testing::TestWithParam<int>
{
};

TEST_P(AnisotropySweep, InvariantsHoldForRandomDerivatives)
{
    static TextureMap tex(128, 128,
                          generateTexture(TextureKind::Noise, 128, 5));
    TextureSampler s(tex);
    SplitMix64 rng(GetParam());

    for (int i = 0; i < 200; ++i) {
        Vec2 dx{rng.nextFloat(-0.2f, 0.2f), rng.nextFloat(-0.2f, 0.2f)};
        Vec2 dy{rng.nextFloat(-0.2f, 0.2f), rng.nextFloat(-0.2f, 0.2f)};
        AnisotropyInfo info = s.computeAnisotropy(dx, dy);

        // N in [1, 16]; pMax >= pMin; LOD ordering.
        EXPECT_GE(info.sampleSize, 1);
        EXPECT_LE(info.sampleSize, 16);
        EXPECT_GE(info.pMax, info.pMin);
        EXPECT_LE(info.lodAF, info.lodTF + 1e-5f);

        // N covers the axis ratio (when below the cap).
        float ratio = info.pMax / info.pMin;
        if (info.sampleSize < 16) {
            EXPECT_GE(static_cast<float>(info.sampleSize) + 1e-3f,
                      ratio - 1.0f);
        }

        // The AF filter produces exactly N samples whose mean position is
        // the request point.
        TrilinearSample samples[TextureSampler::kMaxAniso];
        const Color4f color =
            s.filterAnisotropicInto({0.5f, 0.5f}, info, samples, nullptr);
        float mu = 0, mv = 0;
        for (int k = 0; k < info.sampleSize; ++k) {
            const TrilinearSample &ts = samples[k];
            mu += ts.uv.x;
            mv += ts.uv.y;
            float wsum = 0;
            for (const TexelRef &t : ts.texels)
                wsum += t.weight;
            EXPECT_NEAR(wsum, 1.0f, 1e-4f);
        }
        EXPECT_NEAR(mu / info.sampleSize, 0.5f, 1e-4f);
        EXPECT_NEAR(mv / info.sampleSize, 0.5f, 1e-4f);

        // Filtered color within the texture's value range.
        EXPECT_GE(color.r, -1e-4f);
        EXPECT_LE(color.r, 1.0f + 1e-4f);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnisotropySweep,
                         testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------
// AF-SSIM(N) against the exact similarity-degree formula: the sample-size
// surrogate must be a monotone proxy of Eq. 5 evaluated at mu = N.
TEST(AfSsimProperty, SurrogateMatchesExactFormulaAtIntegerMu)
{
    for (int n = 1; n <= 16; ++n) {
        float surrogate = afSsimFromSampleSize(n);
        float exact = afSsimFromSimilarity(static_cast<float>(n));
        EXPECT_NEAR(surrogate, exact, 2e-4f) << "N=" << n;
    }
}

// ---------------------------------------------------------------------
// Txds over random count distributions: entropy-based similarity must be
// bounded, monotone under concentration, and consistent with the table.
class TxdsSweep : public testing::TestWithParam<int>
{
};

TEST_P(TxdsSweep, RandomDistributionsStayBounded)
{
    SplitMix64 rng(GetParam() * 977);
    for (int trial = 0; trial < 300; ++trial) {
        int n = 2 + static_cast<int>(rng.nextBounded(15));
        // Random partition of n samples into groups.
        TexelAddressTable table;
        int remaining = n;
        Addr base = 0x1000;
        while (remaining > 0) {
            int group = 1 + static_cast<int>(
                rng.nextBounded(static_cast<std::uint64_t>(remaining)));
            TexelAddrSet set;
            for (int i = 0; i < 8; ++i)
                set[i] = base + i * 4;
            for (int g = 0; g < group; ++g)
                table.insert(set);
            base += 0x100;
            remaining -= group;
        }
        std::vector<float> p = table.probabilityVector();
        float sum = 0;
        for (float pi : p)
            sum += pi;
        EXPECT_NEAR(sum, 1.0f, 1e-5f);

        float t = txds(p, n);
        EXPECT_GE(t, 0.0f);
        EXPECT_LE(t, 1.0f);
        float pred = afSsimFromTxds(t);
        EXPECT_GE(pred, 0.0f);
        EXPECT_LE(pred, 1.0f);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxdsSweep, testing::Values(1, 2, 3));

// ---------------------------------------------------------------------
// Decision-flow properties over the threshold range.
class ThresholdSweep : public testing::TestWithParam<float>
{
};

TEST_P(ThresholdSweep, DecisionsConsistentWithPredictions)
{
    float threshold = GetParam();
    PatuConfig cfg;
    cfg.scenario = DesignScenario::Patu;
    cfg.threshold = threshold;
    PatuUnit unit(cfg);

    for (int n = 1; n <= 16; ++n) {
        AnisotropyInfo info;
        info.anisoDegree = n;
        info.sampleSize = n;
        info.pMax = static_cast<float>(n);
        info.pMin = 1.0f;
        info.lodTF = std::log2(std::max(1.0f, info.pMax));
        info.lodAF = 0.0f;
        PixelDecision d = unit.preDecide(info);
        if (n == 1) {
            EXPECT_TRUE(d.approximate);
            continue;
        }
        if (afSsimFromSampleSize(n) > threshold) {
            EXPECT_TRUE(d.approximate) << "N=" << n;
            EXPECT_EQ(d.stage, DecisionStage::SampleArea);
        } else {
            EXPECT_FALSE(d.approximate) << "N=" << n;
            EXPECT_TRUE(d.need_distribution);
        }
    }
}

TEST_P(ThresholdSweep, ApproximationSetShrinksWithThreshold)
{
    // The set of sample sizes approximated at stage 1 is downward closed:
    // if N is approximated, so is every smaller N > 1.
    float threshold = GetParam();
    bool seen_keep = false;
    for (int n = 2; n <= 16; ++n) {
        bool approx = afSsimFromSampleSize(n) > threshold;
        if (!approx)
            seen_keep = true;
        if (seen_keep) {
            EXPECT_FALSE(approx) << "N=" << n;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         testing::Values(0.0f, 0.1f, 0.2f, 0.4f, 0.6f,
                                         0.8f, 0.95f));

// ---------------------------------------------------------------------
// The hot path scores Txds from the table's count tags in place
// (TexelAddressTable::entropyBits() + txdsFromEntropy()); it must equal
// the reference txds(probabilityVector(), n) bit for bit, on full and
// undersized (sample-dropping) tables alike, and the table's matches
// must be std::array equality.
class CountTxdsSweep : public testing::TestWithParam<int>
{
};

TEST_P(CountTxdsSweep, CountTxdsEqualsVectorTxdsBitForBit)
{
    const int capacity = GetParam();
    SplitMix64 rng(static_cast<std::uint64_t>(capacity) * 7919);
    int dropped_trials = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const int n = 1 + static_cast<int>(rng.nextBounded(16));
        // A small pool of distinct sets, some differing from another
        // only in a late slot, so both the slot-0 exit and a full
        // compare are exercised.
        const int pool_size = 1 + static_cast<int>(rng.nextBounded(12));
        std::vector<TexelAddrSet> pool;
        for (int p = 0; p < pool_size; ++p) {
            TexelAddrSet set;
            for (int k = 0; k < 8; ++k)
                set[k] = 0x4000 + static_cast<Addr>(k) * 4;
            set[rng.nextBounded(8)] += static_cast<Addr>(p) * 0x40;
            pool.push_back(set);
        }
        TexelAddressTable table(capacity);
        std::vector<TexelAddrSet> stored;
        for (int i = 0; i < n; ++i) {
            const TexelAddrSet &set = pool[rng.nextBounded(pool.size())];
            bool want = false;
            for (const TexelAddrSet &st : stored)
                want = want || st == set;
            if (!want && static_cast<int>(stored.size()) < capacity)
                stored.push_back(set);
            EXPECT_EQ(table.insert(set), want);
        }
        std::vector<float> p = table.probabilityVector();
        const float want_e = entropyBits(p);
        const float got_e = table.entropyBits();
        const float want_t = txds(p, n);
        const float got_t = txdsFromEntropy(got_e, n);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got_e),
                  std::bit_cast<std::uint32_t>(want_e))
            << "trial " << trial << " n=" << n;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got_t),
                  std::bit_cast<std::uint32_t>(want_t))
            << "trial " << trial << " n=" << n;
        if (static_cast<int>(p.size()) > table.distinctSets())
            ++dropped_trials;
    }
    // Undersized tables must actually have dropped samples somewhere.
    if (capacity < 8) {
        EXPECT_GT(dropped_trials, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CountTxdsSweep,
                         testing::Values(1, 2, 4, 8, 16));

// finishDistribution() returns the Fig. 12 count it measured on the way;
// it must be countSharedSamples() of the same sets for any table size.
TEST(PatuProperty, DistributionCheckReturnsSharedSampleCount)
{
    SplitMix64 rng(5150);
    for (int entries : {2, 16}) {
        PatuConfig cfg;
        cfg.table_entries = entries;
        PatuUnit unit(cfg);
        for (int trial = 0; trial < 200; ++trial) {
            const int n = 2 + static_cast<int>(rng.nextBounded(15));
            std::vector<TexelAddrSet> sets;
            for (int i = 0; i < n; ++i) {
                TexelAddrSet set;
                const Addr base = 0x100 * (1 + rng.nextBounded(6));
                for (int k = 0; k < 8; ++k)
                    set[k] = base + static_cast<Addr>(k) * 4;
                sets.push_back(set);
            }
            AnisotropyInfo info;
            info.anisoDegree = n;
            info.sampleSize = n;
            PixelDecision d;
            d.need_distribution = true;
            EXPECT_EQ(unit.finishDistribution(d, info, sets),
                      unit.countSharedSamples(sets))
                << "entries=" << entries << " trial " << trial;
        }
    }
}

// ---------------------------------------------------------------------
// Hash-table property: the probability vector always reflects the insert
// multiset regardless of order.
TEST(HashTableProperty, OrderIndependentDistribution)
{
    SplitMix64 rng(4242);
    for (int trial = 0; trial < 100; ++trial) {
        int n = 2 + static_cast<int>(rng.nextBounded(15));
        std::vector<TexelAddrSet> sets;
        for (int i = 0; i < n; ++i) {
            Addr base = 0x100 * (1 + rng.nextBounded(4));
            TexelAddrSet s;
            for (int k = 0; k < 8; ++k)
                s[k] = base + k * 4;
            sets.push_back(s);
        }
        TexelAddressTable fwd, rev;
        for (int i = 0; i < n; ++i)
            fwd.insert(sets[i]);
        for (int i = n - 1; i >= 0; --i)
            rev.insert(sets[i]);
        // Entropy (hence Txds) is order independent.
        float ef = entropyBits(fwd.probabilityVector());
        float er = entropyBits(rev.probabilityVector());
        EXPECT_NEAR(ef, er, 1e-5f);
    }
}

// ---------------------------------------------------------------------
// Sampler property: the trilinear footprint's texel addresses always
// match the texture's address calculator.
TEST(SamplerProperty, FootprintAddressesMatchTexture)
{
    TextureMap tex(64, 64, generateTexture(TextureKind::Bricks, 64, 9));
    tex.setBaseAddr(0x2000'0000);
    TextureSampler s(tex);
    SplitMix64 rng(31337);
    for (int i = 0; i < 500; ++i) {
        Vec2 uv{rng.nextFloat(-1.0f, 2.0f), rng.nextFloat(-1.0f, 2.0f)};
        float lod = rng.nextFloat(0.0f, 7.0f);
        TrilinearSample ts = s.trilinear(uv, lod);
        for (const TexelRef &t : ts.texels)
            EXPECT_EQ(t.addr, tex.texelAddr(t.level, t.x, t.y));
    }
}
