/**
 * @file
 * Tests for the filter modes (docs/FILTERING.md): registry/name
 * round-trips, the filter policy each mode reports, the STF modes'
 * independence from the PATU predictor, per-mode activity counters,
 * registry schema parity across modes, and the unbiasedness of the
 * stochastic texel estimators.
 */

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "harness/metrics.hh"
#include "harness/session.hh"
#include "texture/filter_policy.hh"
#include "texture/procedural.hh"

using namespace pargpu;

namespace
{

GameTrace
smallTrace()
{
    // NFS: a road at a grazing angle — reliably anisotropy-heavy, so the
    // policies actually diverge on it.
    return buildGameTrace(GameId::Nfs, 96, 80, 2);
}

RunResult
runMode(const GameTrace &trace, DesignScenario mode,
        bool keep_images = false, float threshold = 0.4f)
{
    Session session;
    RunConfig cfg;
    cfg.scenario = mode;
    cfg.threshold = threshold;
    cfg.keep_images = keep_images;
    cfg.threads = 1;
    return session.run(trace, cfg);
}

std::string
registryDump(const RunResult &run)
{
    return runRegistry(run).toJson().dump(1);
}

} // namespace

TEST(FilterPolicyTest, RegistryNamesRoundTrip)
{
    std::set<std::string> seen;
    for (const ScenarioDesc &d : scenarioRegistry()) {
        DesignScenario parsed;
        ASSERT_TRUE(parseScenarioName(d.name, parsed)) << d.name;
        EXPECT_EQ(parsed, d.id) << d.name;
        EXPECT_STREQ(scenarioMetricName(d.id), d.name);
        EXPECT_STREQ(scenarioName(d.id), d.label);
        EXPECT_TRUE(seen.insert(d.name).second)
            << "duplicate mode name " << d.name;
    }
    EXPECT_EQ(scenarioRegistry().size(), 9u);
}

TEST(FilterPolicyTest, ParseRejectsUnknownNames)
{
    DesignScenario id = DesignScenario::Patu;
    EXPECT_FALSE(parseScenarioName("", id));
    EXPECT_FALSE(parseScenarioName("nearest", id));
    EXPECT_FALSE(parseScenarioName("PATU", id));
    EXPECT_FALSE(parseScenarioName("stf", id));
    EXPECT_EQ(id, DesignScenario::Patu); // Untouched on failure.
}

TEST(FilterPolicyTest, ModesReportTheirPolicy)
{
    // The paper's five scenarios all run the PATU flow; each STF/FAS
    // mode is its own policy, numbered in enum order.
    for (DesignScenario s :
         {DesignScenario::Baseline, DesignScenario::NoAF,
          DesignScenario::AfSsimN, DesignScenario::AfSsimNTxds,
          DesignScenario::Patu}) {
        EXPECT_EQ(filterPolicyCode(s), 0) << scenarioMetricName(s);
        EXPECT_STREQ(filterPolicyName(s), "patu");
    }
    int code = 0;
    for (DesignScenario s :
         {DesignScenario::StfUniform, DesignScenario::StfBlue,
          DesignScenario::StfWeighted,
          DesignScenario::FilterAfterShading}) {
        EXPECT_EQ(filterPolicyCode(s), ++code) << scenarioMetricName(s);
        EXPECT_STREQ(filterPolicyName(s), scenarioMetricName(s));
    }
}

TEST(FilterPolicyTest, StfAndFasModesBypassThePredictor)
{
    // The STF and filter-after-shading modes replace the anisotropic
    // loop wholesale: the PATU threshold cannot change their frames,
    // images or registry.
    GameTrace trace = smallTrace();
    for (DesignScenario s :
         {DesignScenario::StfUniform, DesignScenario::StfBlue,
          DesignScenario::StfWeighted,
          DesignScenario::FilterAfterShading}) {
        SCOPED_TRACE(scenarioMetricName(s));
        const RunResult lo = runMode(trace, s, true, 0.0f);
        const RunResult hi = runMode(trace, s, true, 1.0f);
        EXPECT_EQ(lo.avg_cycles, hi.avg_cycles);
        EXPECT_EQ(registryDump(lo), registryDump(hi));
        ASSERT_EQ(lo.images.size(), hi.images.size());
        for (std::size_t f = 0; f < lo.images.size(); ++f) {
            const std::vector<Color4f> &a = lo.images[f].pixels();
            const std::vector<Color4f> &b = hi.images[f].pixels();
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i) {
                ASSERT_EQ(a[i].r, b[i].r);
                ASSERT_EQ(a[i].g, b[i].g);
                ASSERT_EQ(a[i].b, b[i].b);
            }
        }
    }
}

TEST(FilterPolicyTest, PolicyCountersReportActivity)
{
    GameTrace trace = smallTrace();
    RunResult exact = runMode(trace, DesignScenario::Baseline);
    RunResult stf = runMode(trace, DesignScenario::StfUniform);
    RunResult fas = runMode(trace, DesignScenario::FilterAfterShading);

    auto total = [](const RunResult &r, auto field) {
        std::uint64_t t = 0;
        for (const FrameStats &f : r.frames)
            t += f.*field;
        return t;
    };

    // Exact filtering reports no STF/FAS activity.
    EXPECT_EQ(total(exact, &FrameStats::stf_samples), 0u);
    EXPECT_EQ(total(exact, &FrameStats::fas_quads), 0u);

    // STF fetches one texel per AF sample: stf_samples > 0 and a texel
    // count well below the exact path's 8-per-sample footprints.
    EXPECT_GT(total(stf, &FrameStats::stf_samples), 0u);
    EXPECT_EQ(total(stf, &FrameStats::fas_quads), 0u);
    EXPECT_LT(total(stf, &FrameStats::texels),
              total(exact, &FrameStats::texels));

    // FAS filters whole quads; it fetches fewer texels than full AF.
    EXPECT_GT(total(fas, &FrameStats::fas_quads), 0u);
    EXPECT_EQ(total(fas, &FrameStats::stf_samples), 0u);
    EXPECT_LT(total(fas, &FrameStats::texels),
              total(exact, &FrameStats::texels));
}

TEST(FilterPolicyTest, RegistryKeySetIdenticalAcrossModes)
{
    // The schema contract scripts/check.sh enforces end-to-end: mode
    // selection changes values, never the exported key set (STF/FAS
    // counters are emitted unconditionally).
    GameTrace trace = smallTrace();
    std::set<std::string> ref_keys;
    bool first = true;
    for (const ScenarioDesc &d : scenarioRegistry()) {
        const StatRegistry reg = runRegistry(runMode(trace, d.id));
        std::set<std::string> keys;
        for (const auto &c : reg.counters)
            keys.insert("counters." + c.first);
        for (const auto &s : reg.scalars)
            keys.insert("scalars." + s.first);
        // texunit.policy reports the policy that ran.
        bool found = false;
        for (const auto &s : reg.scalars) {
            if (s.first == "texunit.policy") {
                EXPECT_EQ(s.second,
                          static_cast<double>(filterPolicyCode(d.id)))
                    << d.name;
                found = true;
            }
        }
        EXPECT_TRUE(found) << "texunit.policy missing under " << d.name;
        if (first) {
            ref_keys = keys;
            first = false;
        } else {
            EXPECT_EQ(keys, ref_keys) << "key set drift under " << d.name;
        }
    }
}

TEST(FilterPolicyTest, StochasticModesDifferButReuseAddresses)
{
    // The three STF modes draw different noise (different hash
    // streams), so their images differ — but all visit the same sample
    // positions, so the address-pipeline counters agree exactly.
    GameTrace trace = smallTrace();
    RunResult uni = runMode(trace, DesignScenario::StfUniform, true);
    RunResult blue = runMode(trace, DesignScenario::StfBlue, true);
    EXPECT_EQ(uni.frames[0].addr_ops, blue.frames[0].addr_ops);
    EXPECT_EQ(uni.frames[0].stf_samples, blue.frames[0].stf_samples);

    bool any_diff = false;
    const std::vector<Color4f> &a = uni.images[0].pixels();
    const std::vector<Color4f> &b = blue.images[0].pixels();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size() && !any_diff; ++i)
        any_diff = a[i].r != b[i].r || a[i].g != b[i].g;
    EXPECT_TRUE(any_diff) << "uniform and blue noise produced identical "
                             "frames";
}

TEST(FilterPolicyTest, StfEstimatorsAreUnbiased)
{
    // Stratified integration over the variate: averaging the single-texel
    // estimator across u = (k + 0.5)/N must converge to the exact
    // trilinear color, for both selection schemes (the estimators were
    // constructed to have that expectation).
    TextureMap tex(64, 64, generateTexture(TextureKind::Noise, 64, 7));
    TextureSampler sampler(tex);
    const Vec2 uv{0.37f, 0.61f};
    const float lod = 1.3f;
    const LodSelect sel = sampler.selectLod(lod);
    const Color4f exact = sampler.trilinear(uv, lod).color;

    for (bool weighted : {false, true}) {
        Color4f acc{0.0f, 0.0f, 0.0f, 0.0f};
        const int n = 4096;
        for (int k = 0; k < n; ++k) {
            const float u =
                (static_cast<float>(k) + 0.5f) / static_cast<float>(n);
            StfTexelChoice c = stfSelectTexel(tex, uv, sel, weighted, u);
            acc += c.estimator * (1.0f / static_cast<float>(n));
        }
        EXPECT_NEAR(acc.r, exact.r, 5e-3f) << "weighted=" << weighted;
        EXPECT_NEAR(acc.g, exact.g, 5e-3f) << "weighted=" << weighted;
        EXPECT_NEAR(acc.b, exact.b, 5e-3f) << "weighted=" << weighted;
    }
}

TEST(FilterPolicyTest, StfSampleUStaysInUnitInterval)
{
    for (StfVariant v :
         {StfVariant::Uniform, StfVariant::Blue, StfVariant::Weighted}) {
        for (int px = 0; px < 7; ++px)
            for (int py = 0; py < 7; ++py)
                for (int s = 0; s < 16; ++s) {
                    const float u = stfSampleU(v, px, py, s, 0xDEADBEEFu);
                    ASSERT_GE(u, 0.0f);
                    ASSERT_LT(u, 1.0f);
                }
    }
}

TEST(FilterPolicyTest, FrameSeedVariesBlueNoisePerFrame)
{
    // stf_blue re-seeds its Cranley-Patterson rotation from the frame
    // seed: the same pixel must see different variates across frames.
    const float u0 = stfSampleU(StfVariant::Blue, 5, 9, 0, 1u);
    const float u1 = stfSampleU(StfVariant::Blue, 5, 9, 0, 2u);
    EXPECT_NE(u0, u1);
}
