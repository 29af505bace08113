#include "core/patu.hh"

#include "common/contract.hh"
#include "core/afssim.hh"

namespace pargpu
{

std::span<const ScenarioDesc>
scenarioRegistry()
{
    static const ScenarioDesc kScenarios[] = {
        {DesignScenario::Baseline, "baseline", "Baseline"},
        {DesignScenario::NoAF, "noaf", "No-AF"},
        {DesignScenario::AfSsimN, "n", "AF-SSIM(N)"},
        {DesignScenario::AfSsimNTxds, "ntxds", "AF-SSIM(N)+(Txds)"},
        {DesignScenario::Patu, "patu", "PATU"},
        {DesignScenario::StfUniform, "stf_uniform", "STF-uniform"},
        {DesignScenario::StfBlue, "stf_blue", "STF-blue"},
        {DesignScenario::StfWeighted, "stf_weighted", "STF-weighted"},
        {DesignScenario::FilterAfterShading, "filter_after_shading",
         "Filter-after-shading"},
    };
    return kScenarios;
}

const char *
scenarioName(DesignScenario s)
{
    for (const ScenarioDesc &d : scenarioRegistry())
        if (d.id == s)
            return d.label;
    return "?";
}

const char *
scenarioMetricName(DesignScenario s)
{
    for (const ScenarioDesc &d : scenarioRegistry())
        if (d.id == s)
            return d.name;
    return "unknown";
}

bool
parseScenarioName(std::string_view name, DesignScenario &out)
{
    for (const ScenarioDesc &d : scenarioRegistry()) {
        if (name == d.name) {
            out = d.id;
            return true;
        }
    }
    return false;
}

int
filterPolicyCode(DesignScenario s)
{
    return s > DesignScenario::Patu
        ? static_cast<int>(s) - static_cast<int>(DesignScenario::Patu)
        : 0;
}

const char *
filterPolicyName(DesignScenario s)
{
    return filterPolicyCode(s) == 0 ? "patu" : scenarioMetricName(s);
}

float
PatuUnit::approximatedLod(const AnisotropyInfo &info) const
{
    // Full PATU reuses AF's (finer) LOD for approximated pixels so that
    // adjacent approximated / non-approximated surfaces sample the same
    // mip level: no visible quality shift, and better texture-cache
    // locality. The plain prediction scenarios exhibit the LOD shift the
    // paper describes.
    return config_.scenario == DesignScenario::Patu ? info.lodAF
                                                    : info.lodTF;
}

PixelDecision
PatuUnit::preDecide(const AnisotropyInfo &info)
{
    PixelDecision d;
    // Eq. 6 operates on the anisotropy degree (the axis ratio), which is
    // available right after Texel Generation — before the pipeline
    // quantizes it to an issued sample count.
    d.af_ssim_n = afSsimFromSampleSize(info.anisoDegree);
    PARGPU_CHECK_RANGE(d.af_ssim_n, 0.0f, 1.0f,
                       "AF-SSIM(N) is a similarity, N=", info.anisoDegree);

    // Scenario forcing: Baseline always filters AF, NoAF never does.
    if (config_.scenario == DesignScenario::Baseline) {
        d.approximate = false;
        d.stage = DecisionStage::Forced;
        d.lod = info.lodAF;
        d.sample_size = info.sampleSize;
        return d;
    }
    if (config_.scenario == DesignScenario::NoAF) {
        d.approximate = true;
        d.stage = DecisionStage::Forced;
        d.lod = info.lodTF;
        d.sample_size = 1;
        return d;
    }

    // Trivial case: N == 1 means AF degenerates to one trilinear sample;
    // such pixels bypass both checking stages (Section V-B).
    if (info.sampleSize <= 1) {
        d.approximate = true;
        d.stage = DecisionStage::TrivialTf;
        d.lod = info.lodTF;
        d.sample_size = 1;
        return d;
    }

    // Stage 1: sample-area similarity check.
    if (d.af_ssim_n > config_.threshold) {
        d.approximate = true;
        d.stage = DecisionStage::SampleArea;
        d.lod = approximatedLod(info);
        d.sample_size = 1;
        return d;
    }

    // Stage 2 runs only in the designs that include the distribution
    // check; plain AF-SSIM(N) proceeds straight to full AF.
    if (config_.scenario == DesignScenario::AfSsimN) {
        d.approximate = false;
        d.stage = DecisionStage::FullAf;
        d.lod = info.lodAF;
        d.sample_size = info.sampleSize;
        return d;
    }

    d.need_distribution = true;
    d.lod = info.lodAF; // AF footprints are generated at AF's LOD.
    d.sample_size = info.sampleSize;
    return d;
}

int
PatuUnit::finishDistribution(PixelDecision &d, const AnisotropyInfo &info,
                             std::span<const TexelAddrSet> samples)
{
    d.need_distribution = false;

    table_.reset();
    std::uint64_t shared_hits = 0;
    for (const TexelAddrSet &s : samples) {
        if (table_.insert(s))
            ++shared_hits;
    }
    // Scored from the count tags in place: bit for bit
    // txds(table_.probabilityVector(), n), with no per-pixel vector.
    d.txds_value = txdsFromEntropy(table_.entropyBits(),
                                   static_cast<int>(samples.size()));
    d.af_ssim_txds = afSsimFromTxds(d.txds_value);
    PARGPU_CHECK_RANGE(d.txds_value, 0.0f, 1.0f, "Txds is normalized");
    PARGPU_CHECK_RANGE(d.af_ssim_txds, 0.0f, 1.0f,
                       "AF-SSIM(Txds) is a similarity");
    PARGPU_INVARIANT(table_.samplesInserted() ==
                         static_cast<int>(samples.size()),
                     "hash table lost samples: inserted=",
                     table_.samplesInserted(), " expected=", samples.size());

    if (d.af_ssim_txds > config_.threshold) {
        // The approximation controller sends the tag back to Texel Address
        // Calculation to recalculate with sample size 1 (Section V-B).
        d.approximate = true;
        d.stage = DecisionStage::Distribution;
        d.sample_size = 1;
        d.lod = approximatedLod(info);
    } else {
        d.approximate = false;
        d.stage = DecisionStage::FullAf;
    }
    // A full-size table's hits are exactly countSharedSamples(): both
    // record the first kEntries distinct sets and match the rest against
    // them. An ablation-sized table records fewer, so count anew.
    return table_.capacity() == TexelAddressTable::kEntries
        ? static_cast<int>(shared_hits)
        : countSharedSamples(samples);
}

int
PatuUnit::countSharedSamples(std::span<const TexelAddrSet> sets)
{
    // Equivalent to inserting every address set into a fresh
    // kEntries-capacity TexelAddressTable, but measured in place: a
    // sample is shared iff its 8-address set equals an earlier *recorded*
    // set, and once kEntries distinct sets are recorded later new sets
    // are dropped exactly as the full table drops them. Avoids a heap
    // allocation and an address-set copy per pixel.
    int first[TexelAddressTable::kEntries];
    int distinct = 0;
    int shared = 0;
    for (std::size_t i = 0; i < sets.size(); ++i) {
        const TexelAddrSet &a = sets[i];
        bool match = false;
        for (int d = 0; d < distinct && !match; ++d)
            match = sameAddrSet(a, sets[static_cast<std::size_t>(first[d])]);
        if (match)
            ++shared;
        else if (distinct < TexelAddressTable::kEntries)
            first[distinct++] = static_cast<int>(i);
    }
    return shared;
}

} // namespace pargpu
