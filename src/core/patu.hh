/**
 * @file
 * The Perception-Aware Texture Unit decision logic (Section V).
 *
 * PATU sits in the conventional texture-filtering pipeline (Fig. 14) and
 * decides, per pixel and before texel fetching, whether anisotropic
 * filtering can be replaced with a single trilinear sample:
 *
 *  - Stage 1, after Texel Generation: sample-area similarity check —
 *    AF-SSIM(N) (Eq. 6) against the threshold.
 *  - Stage 2, after Texel Address Calculation: texel-distribution check —
 *    AF's trilinear-sample address sets go through the 16-entry hash table,
 *    the count tags form a probability vector, and AF-SSIM(Txds) (Eq. 10)
 *    is compared against the same unified threshold.
 *
 * Approximated pixels are filtered with TF; under the full PATU design they
 * reuse AF's LOD (the finer mip level selected by the minor axis) to avoid
 * the intra-frame LOD shift of Section V-C(2).
 */

#ifndef PARGPU_CORE_PATU_HH
#define PARGPU_CORE_PATU_HH

#include <span>
#include <string_view>

#include "core/hashtable.hh"
#include "texture/sampler.hh"

namespace pargpu
{

/**
 * The filter modes: the design scenarios compared throughout Section VII,
 * then the alternative filtering strategies of the related work
 * (docs/FILTERING.md). The STF and filter-after-shading modes replace
 * the anisotropic filtering loop wholesale and bypass the predictor.
 */
enum class DesignScenario
{
    Baseline,    ///< Conventional 16x AF on every anisotropic pixel.
    NoAF,        ///< AF disabled: TF everywhere (Section II-B study).
    AfSsimN,     ///< Sample-area based prediction only.
    AfSsimNTxds, ///< Sample-area + distribution based prediction.
    Patu,        ///< Both predictions + LOD-shift elimination.
    StfUniform,  ///< One white-noise texel per AF sample.
    StfBlue,     ///< One texel per AF sample, IGN screen-space noise.
    StfWeighted, ///< One weight-importance-sampled texel per AF sample.
    FilterAfterShading, ///< Sharp centroid sample + cross-quad filter.
};

/** A filter mode's two spellings. */
struct ScenarioDesc
{
    DesignScenario id;
    const char *name;  ///< Metrics, CLI and serve name ("patu", ...).
    const char *label; ///< Report-table label ("PATU", ...).
};

/** Every filter mode, in enum order: the one list of them. */
std::span<const ScenarioDesc> scenarioRegistry();

/** Report-table label ("PATU"). */
const char *scenarioName(DesignScenario s);

/** Metrics, CLI and serve name ("patu"). */
const char *scenarioMetricName(DesignScenario s);

/** Parse a scenarioMetricName(); false (out untouched) when unknown. */
bool parseScenarioName(std::string_view name, DesignScenario &out);

/**
 * Numeric filter policy of a mode, as FrameStats::filter_policy and the
 * texunit.policy metric report it: 0 (the PATU flow) for the paper's
 * five scenarios, 1-4 for StfUniform, StfBlue, StfWeighted and
 * FilterAfterShading.
 */
int filterPolicyCode(DesignScenario s);

/**
 * Name of filterPolicyCode(s), as run.filter_policy reports it: "patu"
 * for the paper's five scenarios, scenarioMetricName(s) otherwise.
 */
const char *filterPolicyName(DesignScenario s);

/** PATU configuration knobs. */
struct PatuConfig
{
    DesignScenario scenario = DesignScenario::Patu;
    /**
     * Unified AF-SSIM threshold in [0, 1] for both prediction stages
     * (Section IV-C(C)). Predicted AF-SSIM above the threshold marks the
     * pixel approximated. 0 disables AF entirely; 1 keeps the baseline.
     * Default 0.4 = the paper's average best point.
     */
    float threshold = 0.4f;
    int max_aniso = 16;     ///< Texture-unit anisotropy cap.
    int table_entries = 16; ///< Texel-address table capacity (ablation).
};

/** How a pixel's filtering decision was reached. */
enum class DecisionStage
{
    TrivialTf,    ///< N == 1: AF degenerates to TF, no prediction needed.
    SampleArea,   ///< Approximated by stage 1 (AF-SSIM(N)).
    Distribution, ///< Approximated by stage 2 (AF-SSIM(Txds)).
    FullAf,       ///< Prediction kept AF.
    Forced,       ///< Scenario forced the outcome (Baseline / NoAF).
};

/** Result of the per-pixel decision flow (Fig. 13). */
struct PixelDecision
{
    bool approximate = false;  ///< Filter with TF instead of AF.
    bool need_distribution = false; ///< Stage 2 must still run.
    DecisionStage stage = DecisionStage::FullAf;
    float af_ssim_n = 1.0f;    ///< Stage-1 prediction value.
    float txds_value = -1.0f;  ///< Stage-2 Txds (-1 if not evaluated).
    float af_ssim_txds = -1.0f;///< Stage-2 prediction (-1 if not evaluated).
    float lod = 0.0f;          ///< LOD the chosen filter should use.
    int sample_size = 1;       ///< Sample count the chosen filter issues.
};

/**
 * The PATU decision pipeline of one texture unit, run for each covered
 * pixel of a quad. Owns a TexelAddressTable; the texture unit counts
 * the decisions it returns (TexUnitStats).
 */
class PatuUnit
{
  public:
    explicit PatuUnit(const PatuConfig &config)
        : config_(config), table_(config.table_entries)
    {
    }

    const PatuConfig &config() const { return config_; }

    /**
     * Decide under @p config from now on; the table is reset per pixel
     * anyway, so only a new size rebuilds it.
     */
    void
    reconfigure(const PatuConfig &config)
    {
        if (config.table_entries != config_.table_entries)
            table_ = TexelAddressTable(config.table_entries);
        config_ = config;
    }

    /**
     * Run everything decidable after Texel Generation: scenario forcing,
     * the trivial N == 1 case and the stage-1 sample-area check. If the
     * result has need_distribution set, the caller must compute the AF
     * footprints (address calculation) and call finishDistribution().
     */
    PixelDecision preDecide(const AnisotropyInfo &info);

    /**
     * Run the stage-2 distribution check on the AF trilinear samples'
     * address sets and finalize the decision.
     *
     * @param d     Decision returned by preDecide() with
     *              need_distribution set.
     * @param info  The pixel's anisotropy parameters (for LOD re-select).
     * @param sets  The 8-address set of each of the N AF samples.
     * @return countSharedSamples(sets), the Fig. 12 statistic, which
     *         the check has computed on the way.
     */
    int finishDistribution(PixelDecision &d, const AnisotropyInfo &info,
                            std::span<const TexelAddrSet> sets);

    /**
     * Measurement helper for the Fig. 12 statistic: count how many of the
     * AF samples share a texel set with a previously seen sample of the
     * same pixel (first occurrence of each distinct set is the "original").
     *
     * @return Number of shared (non-first-occurrence) samples.
     */
    int countSharedSamples(std::span<const TexelAddrSet> sets);

  private:
    /** LOD an approximated pixel's TF should use (Section V-C(2)). */
    float approximatedLod(const AnisotropyInfo &info) const;

    PatuConfig config_;
    TexelAddressTable table_;
};

} // namespace pargpu

#endif // PARGPU_CORE_PATU_HH
