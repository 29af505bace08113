/**
 * @file
 * Tests for the FilterPolicy family (docs/FILTERING.md): registry/name
 * round-trips, typed config validation, the default policy's equivalence
 * with the explicit PATU flow, per-policy activity counters, registry
 * schema parity across policies, and the unbiasedness of the stochastic
 * texel estimators.
 */

#include <cstdlib>
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
runPolicy(const GameTrace &trace, FilterPolicyId policy,
          bool keep_images = false)
{
    Session session;
    RunConfig cfg;
    cfg.filter_policy = policy;
    cfg.keep_images = keep_images;
    cfg.threads = 1;
    return session.run(trace, cfg);
}

/** Sets defaultFilterPolicy() for one scope, then restores it. */
class DefaultPolicyGuard
{
  public:
    explicit DefaultPolicyGuard(FilterPolicyId id)
        : saved_(defaultFilterPolicy())
    {
        setDefaultFilterPolicy(id);
    }
    ~DefaultPolicyGuard() { setDefaultFilterPolicy(saved_); }

  private:
    FilterPolicyId saved_;
};

std::string
registryDump(const RunResult &run)
{
    StatRegistry reg;
    buildRunRegistry(run, reg);
    return reg.snapshot().toJson().dump(1);
}

} // namespace

TEST(FilterPolicyTest, RegistryNamesRoundTrip)
{
    std::set<std::string> seen;
    for (const FilterPolicyDesc &d : filterPolicyRegistry()) {
        FilterPolicyId parsed;
        ASSERT_TRUE(parseFilterPolicy(d.name, parsed)) << d.name;
        EXPECT_EQ(parsed, d.id) << d.name;
        EXPECT_STREQ(filterPolicyName(d.id), d.name);
        EXPECT_TRUE(isKnownFilterPolicy(d.id));
        EXPECT_TRUE(seen.insert(d.name).second)
            << "duplicate policy name " << d.name;
    }
    EXPECT_GE(filterPolicyRegistry().size(), 4u);
}

TEST(FilterPolicyTest, ParseRejectsUnknownNames)
{
    FilterPolicyId id = FilterPolicyId::Patu;
    EXPECT_FALSE(parseFilterPolicy("", id));
    EXPECT_FALSE(parseFilterPolicy("nearest", id));
    EXPECT_FALSE(parseFilterPolicy("PATU", id));
    EXPECT_FALSE(parseFilterPolicy("stf", id));
    EXPECT_EQ(id, FilterPolicyId::Patu); // Untouched on failure.
}

TEST(FilterPolicyTest, ValidateRejectsUnregisteredPolicy)
{
    RunConfig cfg;
    cfg.filter_policy = static_cast<FilterPolicyId>(99);
    std::vector<ConfigError> errors = cfg.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors.front(), ConfigError::BadFilterPolicy);
    EXPECT_NE(configErrorMessage(errors.front()), nullptr);
    EXPECT_NE(std::string(configErrorMessage(errors.front())).find("patu"),
              std::string::npos);
}

TEST(FilterPolicyTest, AppliedDefaultMatchesEnvironment)
{
    // The test main applied PARGPU_FILTER_POLICY; scripts/check.sh's
    // policy matrix reruns this binary under every policy, and a main
    // that stopped applying the variable fails here instead of passing
    // under the default.
    const char *v = std::getenv("PARGPU_FILTER_POLICY");
    FilterPolicyId want = FilterPolicyId::Patu;
    if (v != nullptr && v[0] != '\0') {
        ASSERT_TRUE(parseFilterPolicy(v, want)) << v;
    }
    EXPECT_EQ(defaultFilterPolicy(), want);
    EXPECT_EQ(RunConfig{}.filter_policy, want);
}

TEST(FilterPolicyTest, DefaultConfigFollowsSetDefault)
{
    DefaultPolicyGuard guard(FilterPolicyId::StfBlue);
    EXPECT_EQ(RunConfig{}.filter_policy, FilterPolicyId::StfBlue);
    setDefaultFilterPolicy(FilterPolicyId::Patu);
    EXPECT_EQ(RunConfig{}.filter_policy, FilterPolicyId::Patu);
}

TEST(FilterPolicyTest, DefaultPolicyMatchesExplicitPatu)
{
    Session session;
    // The refactor contract: the default-constructed config (pre-refactor
    // behavior) and an explicit patu policy selection are the same code
    // path — frames, images and the full registry snapshot.
    DefaultPolicyGuard guard(FilterPolicyId::Patu);
    GameTrace trace = smallTrace();
    RunConfig def_cfg;
    def_cfg.threads = 1;
    RunResult def = session.run(trace, def_cfg);
    RunResult patu = runPolicy(trace, FilterPolicyId::Patu, true);

    ASSERT_EQ(def.frames.size(), patu.frames.size());
    EXPECT_EQ(def.avg_cycles, patu.avg_cycles);
    EXPECT_EQ(def.total_energy_nj, patu.total_energy_nj);
    EXPECT_EQ(registryDump(def), registryDump(patu));
    ASSERT_EQ(def.images.size(), patu.images.size());
    for (std::size_t f = 0; f < def.images.size(); ++f) {
        const std::vector<Color4f> &a = def.images[f].pixels();
        const std::vector<Color4f> &b = patu.images[f].pixels();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].r, b[i].r);
            ASSERT_EQ(a[i].g, b[i].g);
            ASSERT_EQ(a[i].b, b[i].b);
        }
    }
}

TEST(FilterPolicyTest, PolicyCountersReportActivity)
{
    GameTrace trace = smallTrace();
    RunResult patu = runPolicy(trace, FilterPolicyId::Patu);
    RunResult stf = runPolicy(trace, FilterPolicyId::StfUniform);
    RunResult fas = runPolicy(trace, FilterPolicyId::FilterAfterShading);

    auto total = [](const RunResult &r, auto field) {
        std::uint64_t t = 0;
        for (const FrameStats &f : r.frames)
            t += f.*field;
        return t;
    };

    // PATU reports no policy-specific activity.
    EXPECT_EQ(total(patu, &FrameStats::stf_samples), 0u);
    EXPECT_EQ(total(patu, &FrameStats::fas_quads), 0u);

    // STF fetches one texel per AF sample: stf_samples > 0 and a texel
    // count well below the exact path's 8-per-sample footprints.
    EXPECT_GT(total(stf, &FrameStats::stf_samples), 0u);
    EXPECT_EQ(total(stf, &FrameStats::fas_quads), 0u);
    EXPECT_LT(total(stf, &FrameStats::texels),
              total(patu, &FrameStats::texels));

    // FAS filters whole quads; it fetches fewer texels than full AF.
    EXPECT_GT(total(fas, &FrameStats::fas_quads), 0u);
    EXPECT_EQ(total(fas, &FrameStats::stf_samples), 0u);
    EXPECT_LT(total(fas, &FrameStats::texels),
              total(patu, &FrameStats::texels));
}

TEST(FilterPolicyTest, RegistryKeySetIdenticalAcrossPolicies)
{
    // The schema contract scripts/check.sh enforces end-to-end: policy
    // selection changes values, never the exported key set (policy
    // counters are emitted unconditionally).
    GameTrace trace = smallTrace();
    std::set<std::string> ref_keys;
    bool first = true;
    for (const FilterPolicyDesc &d : filterPolicyRegistry()) {
        StatRegistry reg;
        RunResult run = runPolicy(trace, d.id);
        buildRunRegistry(run, reg);
        StatSnapshot snap = reg.snapshot();
        std::set<std::string> keys;
        for (const auto &c : snap.counters)
            keys.insert("counters." + c.first);
        for (const auto &s : snap.scalars)
            keys.insert("scalars." + s.first);
        // texunit.policy reports the policy that ran.
        bool found = false;
        for (const auto &s : snap.scalars) {
            if (s.first == "texunit.policy") {
                EXPECT_EQ(s.second, static_cast<double>(d.id)) << d.name;
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

TEST(FilterPolicyTest, StochasticPoliciesDifferButReuseAddresses)
{
    // The three STF variants draw different noise (different hash
    // streams), so their images differ — but all visit the same sample
    // positions, so the address-pipeline counters agree exactly.
    GameTrace trace = smallTrace();
    RunResult uni = runPolicy(trace, FilterPolicyId::StfUniform, true);
    RunResult blue = runPolicy(trace, FilterPolicyId::StfBlue, true);
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
    TrilinearSample exact_s;
    const Color4f exact =
        sampler.filterTrilinearInto(uv, lod, exact_s, nullptr);

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
    for (FilterPolicyId id : {FilterPolicyId::StfUniform,
                              FilterPolicyId::StfBlue,
                              FilterPolicyId::StfWeighted}) {
        for (int px = 0; px < 7; ++px)
            for (int py = 0; py < 7; ++py)
                for (int s = 0; s < 16; ++s) {
                    const float u = stfSampleU(id, px, py, s, 0xDEADBEEFu);
                    ASSERT_GE(u, 0.0f);
                    ASSERT_LT(u, 1.0f);
                }
    }
}

TEST(FilterPolicyTest, FrameSeedVariesBlueNoisePerFrame)
{
    // stf_blue re-seeds its Cranley-Patterson rotation from the frame
    // seed: the same pixel must see different variates across frames.
    const float u0 = stfSampleU(FilterPolicyId::StfBlue, 5, 9, 0, 1u);
    const float u1 = stfSampleU(FilterPolicyId::StfBlue, 5, 9, 0, 2u);
    EXPECT_NE(u0, u1);
}
