/**
 * @file
 * Unit tests for the PATU decision unit (Section V): scenario forcing,
 * stage-1/stage-2 checks, LOD-shift elimination and decision statistics.
 */

#include <gtest/gtest.h>

#include "core/afssim.hh"
#include "core/patu.hh"
#include "texture/procedural.hh"

using namespace pargpu;

namespace
{

AnisotropyInfo
infoWithN(int n)
{
    AnisotropyInfo info;
    info.anisoDegree = n;
    info.sampleSize = n;
    info.pMax = static_cast<float>(n);
    info.pMin = 1.0f;
    info.lodTF = std::log2(std::max(1.0f, info.pMax));
    info.lodAF = 0.0f;
    info.majorUv = {0.01f, 0.0f};
    return info;
}

PatuConfig
cfg(DesignScenario s, float threshold = 0.4f)
{
    PatuConfig c;
    c.scenario = s;
    c.threshold = threshold;
    return c;
}

// Build the address sets of real AF footprints for a synthetic pixel on
// a real texture, with controllable overlap: step 0 makes all samples
// share one footprint.
std::vector<TexelAddrSet>
footprints(int n, float step)
{
    static TextureMap tex(64, 64,
                          generateTexture(TextureKind::Noise, 64, 3));
    TextureSampler s(tex);
    std::vector<TexelAddrSet> out;
    for (int i = 0; i < n; ++i) {
        TrilinearSample t = s.trilinear({0.3f + step * i, 0.5f}, 0.0f);
        TexelAddrSet set;
        for (int k = 0; k < 8; ++k)
            set[k] = t.texels[k].addr;
        out.push_back(set);
    }
    return out;
}

} // namespace

TEST(PatuPreDecideTest, BaselineNeverApproximates)
{
    PatuUnit u(cfg(DesignScenario::Baseline));
    PixelDecision d = u.preDecide(infoWithN(8));
    EXPECT_FALSE(d.approximate);
    EXPECT_FALSE(d.need_distribution);
    EXPECT_EQ(d.stage, DecisionStage::Forced);
    EXPECT_EQ(d.sample_size, 8);
}

TEST(PatuPreDecideTest, NoAfAlwaysApproximates)
{
    PatuUnit u(cfg(DesignScenario::NoAF));
    PixelDecision d = u.preDecide(infoWithN(8));
    EXPECT_TRUE(d.approximate);
    EXPECT_EQ(d.stage, DecisionStage::Forced);
    EXPECT_EQ(d.sample_size, 1);
    EXPECT_FLOAT_EQ(d.lod, infoWithN(8).lodTF);
}

TEST(PatuPreDecideTest, TrivialTfBypassesChecks)
{
    PatuUnit u(cfg(DesignScenario::Patu));
    PixelDecision d = u.preDecide(infoWithN(1));
    EXPECT_TRUE(d.approximate);
    EXPECT_EQ(d.stage, DecisionStage::TrivialTf);
    EXPECT_FALSE(d.need_distribution);
}

TEST(PatuPreDecideTest, Stage1ApproximatesSmallN)
{
    // AF-SSIM(2) = (4/5)^2 = 0.64 > 0.4: approximated at stage 1.
    PatuUnit u(cfg(DesignScenario::Patu, 0.4f));
    PixelDecision d = u.preDecide(infoWithN(2));
    EXPECT_TRUE(d.approximate);
    EXPECT_EQ(d.stage, DecisionStage::SampleArea);
    EXPECT_NEAR(d.af_ssim_n, 0.64f, 1e-5f);
}

TEST(PatuPreDecideTest, Stage1KeepsLargeNForDistribution)
{
    // AF-SSIM(8) = (16/65)^2 ~ 0.0606 < 0.4: goes to stage 2.
    PatuUnit u(cfg(DesignScenario::Patu, 0.4f));
    PixelDecision d = u.preDecide(infoWithN(8));
    EXPECT_FALSE(d.approximate);
    EXPECT_TRUE(d.need_distribution);
}

TEST(PatuPreDecideTest, AfSsimNScenarioSkipsDistribution)
{
    PatuUnit u(cfg(DesignScenario::AfSsimN, 0.4f));
    PixelDecision d = u.preDecide(infoWithN(8));
    EXPECT_FALSE(d.approximate);
    EXPECT_FALSE(d.need_distribution);
    EXPECT_EQ(d.stage, DecisionStage::FullAf);
}

TEST(PatuPreDecideTest, ThresholdZeroDisablesAfEntirely)
{
    // Every prediction exceeds 0: everything is approximated, matching
    // the paper's "threshold = 0 is the no-AF case".
    PatuUnit u(cfg(DesignScenario::Patu, 0.0f));
    for (int n = 2; n <= 16; ++n) {
        PixelDecision d = u.preDecide(infoWithN(n));
        EXPECT_TRUE(d.approximate) << "N=" << n;
        EXPECT_EQ(d.stage, DecisionStage::SampleArea);
    }
}

TEST(PatuPreDecideTest, ThresholdOneKeepsBaseline)
{
    // No prediction can exceed 1: nothing with N > 1 is approximated at
    // stage 1 (threshold = 1 is the baseline case).
    PatuUnit u(cfg(DesignScenario::Patu, 1.0f));
    for (int n = 2; n <= 16; ++n) {
        PixelDecision d = u.preDecide(infoWithN(n));
        EXPECT_FALSE(d.approximate) << "N=" << n;
    }
}

TEST(PatuLodTest, PatuReusesAfLodForApproximatedPixels)
{
    // Section V-C(2): full PATU moves TF's sampling level to AF's.
    PatuUnit u(cfg(DesignScenario::Patu, 0.4f));
    AnisotropyInfo info = infoWithN(2);
    PixelDecision d = u.preDecide(info);
    ASSERT_TRUE(d.approximate);
    EXPECT_FLOAT_EQ(d.lod, info.lodAF);
}

TEST(PatuLodTest, PlainPredictionsUseTfLod)
{
    PatuUnit u(cfg(DesignScenario::AfSsimNTxds, 0.4f));
    AnisotropyInfo info = infoWithN(2);
    PixelDecision d = u.preDecide(info);
    ASSERT_TRUE(d.approximate);
    EXPECT_FLOAT_EQ(d.lod, info.lodTF);
}

TEST(PatuDistributionTest, FullOverlapApproximates)
{
    PatuUnit u(cfg(DesignScenario::Patu, 0.4f));
    AnisotropyInfo info = infoWithN(8);
    PixelDecision d = u.preDecide(info);
    ASSERT_TRUE(d.need_distribution);
    // All 8 samples share one texel set: Txds = 1, AF-SSIM = 1 > 0.4.
    u.finishDistribution(d, info, footprints(8, 0.0f));
    EXPECT_TRUE(d.approximate);
    EXPECT_EQ(d.stage, DecisionStage::Distribution);
    EXPECT_NEAR(d.txds_value, 1.0f, 1e-5f);
    EXPECT_EQ(d.sample_size, 1);
}

TEST(PatuDistributionTest, DisjointFootprintsKeepAf)
{
    PatuUnit u(cfg(DesignScenario::Patu, 0.4f));
    AnisotropyInfo info = infoWithN(8);
    PixelDecision d = u.preDecide(info);
    ASSERT_TRUE(d.need_distribution);
    // Large steps: every sample has its own footprint, Txds = 0.
    u.finishDistribution(d, info, footprints(8, 0.08f));
    EXPECT_FALSE(d.approximate);
    EXPECT_EQ(d.stage, DecisionStage::FullAf);
    EXPECT_NEAR(d.txds_value, 0.0f, 1e-5f);
}

TEST(PatuDistributionTest, EachDecisionReportsItsStage)
{
    PatuUnit u(cfg(DesignScenario::Patu, 0.4f));
    AnisotropyInfo info = infoWithN(8);
    PixelDecision d1 = u.preDecide(info);
    u.finishDistribution(d1, info, footprints(8, 0.0f));
    PixelDecision d2 = u.preDecide(info);
    u.finishDistribution(d2, info, footprints(8, 0.08f));

    EXPECT_EQ(d1.stage, DecisionStage::Distribution);
    EXPECT_EQ(d2.stage, DecisionStage::FullAf);
    EXPECT_EQ(u.preDecide(infoWithN(1)).stage, DecisionStage::TrivialTf);
    EXPECT_EQ(u.preDecide(infoWithN(2)).stage, DecisionStage::SampleArea);
}

TEST(PatuSharedSamplesTest, CountsNonFirstOccurrences)
{
    PatuUnit u(cfg(DesignScenario::Patu));
    // 5 samples all sharing one set: 4 shared.
    EXPECT_EQ(u.countSharedSamples(footprints(5, 0.0f)), 4);
    // All distinct: 0 shared.
    EXPECT_EQ(u.countSharedSamples(footprints(5, 0.08f)), 0);
}

TEST(PatuScenarioNameTest, AllScenariosNamed)
{
    EXPECT_STREQ(scenarioName(DesignScenario::Baseline), "Baseline");
    EXPECT_STREQ(scenarioName(DesignScenario::NoAF), "No-AF");
    EXPECT_STREQ(scenarioName(DesignScenario::AfSsimN), "AF-SSIM(N)");
    EXPECT_STREQ(scenarioName(DesignScenario::AfSsimNTxds),
                 "AF-SSIM(N)+(Txds)");
    EXPECT_STREQ(scenarioName(DesignScenario::Patu), "PATU");
}
