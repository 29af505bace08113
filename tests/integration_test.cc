/**
 * @file
 * Cross-module integration tests: full game traces through the harness,
 * checking the relationships the paper's evaluation depends on.
 */

#include <gtest/gtest.h>

#include "harness/session.hh"

using namespace pargpu;

namespace
{

// Small shared trace so the suite stays fast.
const GameTrace &
smallTrace()
{
    static GameTrace t = buildGameTrace(GameId::HL2, 320, 240, 1);
    return t;
}

RunResult
run(DesignScenario s, float threshold = 0.4f)
{
    Session session;
    RunConfig cfg;
    cfg.scenario = s;
    cfg.threshold = threshold;
    return session.run(smallTrace(), cfg);
}

} // namespace

TEST(IntegrationTest, BaselineQualityIsPerfectAgainstItself)
{
    RunResult base = run(DesignScenario::Baseline);
    EXPECT_NEAR(base.mssimAgainst(base.images), 1.0, 1e-9);
}

TEST(IntegrationTest, DisablingAfDegradesQuality)
{
    RunResult base = run(DesignScenario::Baseline);
    RunResult noaf = run(DesignScenario::NoAF);
    double q = noaf.mssimAgainst(base.images);
    EXPECT_LT(q, 0.99); // Visibly different...
    EXPECT_GT(q, 0.3);  // ... but not unrelated images.
}

TEST(IntegrationTest, PatuQualityBeatsNoAf)
{
    RunResult base = run(DesignScenario::Baseline);
    RunResult noaf = run(DesignScenario::NoAF);
    RunResult patu = run(DesignScenario::Patu, 0.4f);
    EXPECT_GT(patu.mssimAgainst(base.images),
              noaf.mssimAgainst(base.images));
}

TEST(IntegrationTest, PatuFasterThanBaseline)
{
    RunResult base = run(DesignScenario::Baseline);
    RunResult patu = run(DesignScenario::Patu, 0.4f);
    EXPECT_LT(patu.avg_cycles, base.avg_cycles);
}

TEST(IntegrationTest, PatuSavesEnergy)
{
    RunResult base = run(DesignScenario::Baseline);
    RunResult patu = run(DesignScenario::Patu, 0.4f);
    EXPECT_LT(patu.total_energy_nj, base.total_energy_nj);
}

TEST(IntegrationTest, LodShiftFixImprovesQualityOverPlainPrediction)
{
    // Fig. 19's key comparison: PATU recovers quality lost by
    // AF-SSIM(N)+(Txds) via LOD reuse.
    RunResult base = run(DesignScenario::Baseline);
    RunResult plain = run(DesignScenario::AfSsimNTxds, 0.4f);
    RunResult patu = run(DesignScenario::Patu, 0.4f);
    EXPECT_GT(patu.mssimAgainst(base.images),
              plain.mssimAgainst(base.images));
}

TEST(IntegrationTest, TxdsStageApproximatesMorePixelsThanNOnly)
{
    RunResult n_only = run(DesignScenario::AfSsimN, 0.4f);
    RunResult n_txds = run(DesignScenario::AfSsimNTxds, 0.4f);
    double fetched_n = sumOver(n_only.frames, &FrameStats::texels);
    double fetched_nt = sumOver(n_txds.frames, &FrameStats::texels);
    EXPECT_LT(fetched_nt, fetched_n);
}

TEST(IntegrationTest, ThresholdMonotonicityInWork)
{
    // Higher threshold -> fewer approximations -> more texels fetched.
    double prev = -1.0;
    for (float t : {0.0f, 0.4f, 0.8f, 1.0f}) {
        RunResult r = run(DesignScenario::Patu, t);
        double texels = sumOver(r.frames, &FrameStats::texels);
        EXPECT_GE(texels, prev) << "threshold " << t;
        prev = texels;
    }
}

TEST(IntegrationTest, SharedSampleFractionIsSubstantial)
{
    // Fig. 12: a large share of AF input samples reuse texel sets.
    RunResult base = run(DesignScenario::Baseline);
    double shared = sumOver(base.frames, &FrameStats::shared_samples);
    double total = sumOver(base.frames, &FrameStats::af_input_samples);
    ASSERT_GT(total, 0.0);
    EXPECT_GT(shared / total, 0.2);
}

TEST(IntegrationTest, QuadDivergenceIsRare)
{
    // Section V-C(1): ~1 % of quads diverge.
    RunResult patu = run(DesignScenario::Patu, 0.4f);
    double div = sumOver(patu.frames, &FrameStats::divergent_quads);
    double quads = sumOver(patu.frames, &FrameStats::af_quads);
    ASSERT_GT(quads, 0.0);
    EXPECT_LT(div / quads, 0.10);
}

TEST(IntegrationTest, RunnerKeepsPerFrameData)
{
    Session session;
    GameTrace t = buildGameTrace(GameId::Wolf, 160, 120, 3);
    RunConfig cfg;
    cfg.scenario = DesignScenario::Baseline;
    RunResult r = session.run(t, cfg);
    EXPECT_EQ(r.frames.size(), 3u);
    EXPECT_EQ(r.images.size(), 3u);
    EXPECT_EQ(frameCycles(r).size(), 3u);
    RunConfig no_img = cfg;
    no_img.keep_images = false;
    RunResult r2 = session.run(t, no_img);
    EXPECT_TRUE(r2.images.empty());
}

TEST(IntegrationTest, CacheScalingInteractsWithPatu)
{
    Session session;
    RunConfig small;
    small.scenario = DesignScenario::Patu;
    RunConfig big = small;
    big.llc_scale = 4;
    RunResult rs = session.run(smallTrace(), small);
    RunResult rb = session.run(smallTrace(), big);
    // More LLC can only help (or leave unchanged) frame time.
    EXPECT_LE(rb.avg_cycles, rs.avg_cycles * 1.02);
}
