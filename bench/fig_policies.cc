/**
 * @file
 * Filter-policy comparison testbed (docs/FILTERING.md): quality vs. texel
 * fetches vs. energy for each texture filter policy — the PATU flow and
 * every STF / filter-after-shading mode of scenarioRegistry() — on one
 * texel-bound workload (HL2) and one anisotropy-heavy workload (NFS).
 *
 * Rows per workload: the exact-filtering reference (the baseline
 * scenario: the predictor never downgrades there), then patu and each
 * STF/FAS mode at the paper's threshold 0.4. Quality is MSSIM against
 * the exact reference, so the stochastic modes are scored against ground
 * truth rather than their own noise.
 *
 * With PARGPU_METRICS_DIR set, each run is exported as
 * fig_policies_<workload>_<policy>[_ref].json (standard pargpu-metrics
 * schema); feed the directory to `pargpu_report.py --compare-policies`
 * for the machine-made version of the table printed here.
 */

#include "bench_util.hh"

using namespace pargpu;
using namespace pargpu::bench;

namespace
{

/** maybeWriteMetrics() names files by scenario, which collides with the
 *  reference run; export with the policy name (and a _ref marker). */
void
writePolicyMetrics(const Workload &w, const RunConfig &config,
                   const RunResult &run, double mssim, bool reference)
{
    const char *dir = std::getenv("PARGPU_METRICS_DIR");
    if (!dir || !dir[0])
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec); // best-effort
    RunMetadata meta;
    meta.tool = "fig_policies";
    meta.workload = w.label;
    meta.width = w.trace.width;
    meta.height = w.trace.height;
    meta.frames = static_cast<int>(w.trace.cameras.size());
    std::string path = std::string(dir) + "/fig_policies_" + w.label +
        "_" + filterPolicyName(config.scenario) +
        (reference ? "_ref" : "") + ".json";
    if (!writeMetricsJson(path, meta, config, run, mssim))
        std::fprintf(stderr, "bench: cannot write metrics to %s\n",
                     path.c_str());
}

std::uint64_t
totalOf(const RunResult &run, std::uint64_t FrameStats::*field)
{
    std::uint64_t t = 0;
    for (const FrameStats &f : run.frames)
        t += f.*field;
    return t;
}

} // namespace

int
main()
{
    applyEnvironment();
    Session session;
    banner("Filter-policy comparison",
           "quality vs. texel fetches vs. energy per filter policy");

    // One texel-bound and one anisotropy-heavy Table II workload.
    const struct
    {
        GameId id;
        const char *abbr;
        int width, height;
    } games[] = {
        {GameId::HL2, "hl2", 1280, 1024}, // texel-bound
        {GameId::Nfs, "nfs", 1280, 1024}, // anisotropy-heavy
    };

    for (const auto &g : games) {
        Workload w;
        w.trace = buildGameTrace(g.id, scaleDim(g.width),
                                 scaleDim(g.height), numFrames());
        w.label = std::string(g.abbr) + "-" + std::to_string(g.width) +
            "x" + std::to_string(g.height);

        // Reference first, then patu and every STF/FAS mode — one sweep
        // so the runs share the thread pool.
        std::vector<RunConfig> configs;
        RunConfig ref;
        ref.scenario = DesignScenario::Baseline;
        configs.push_back(ref);
        for (const ScenarioDesc &d : scenarioRegistry()) {
            if (d.id != DesignScenario::Patu && filterPolicyCode(d.id) == 0)
                continue; // The other paper scenarios: fig19's domain.
            RunConfig c;
            c.scenario = d.id;
            c.threshold = 0.4f;
            configs.push_back(c);
        }
        std::vector<RunResult> runs = session.sweep(w.trace, configs);
        const RunResult &base = runs[0];
        writePolicyMetrics(w, configs[0], base, -1.0, true);

        std::printf("\n%s\n", w.label.c_str());
        std::printf("%-22s %8s %12s %12s %10s %8s\n", "policy", "MSSIM",
                    "texels", "filt-ops", "energy-uJ", "speedup");
        const double base_texels =
            static_cast<double>(totalOf(base, &FrameStats::texels));
        std::printf("%-22s %8s %12llu %12llu %10.1f %7.3fx\n",
                    "reference (exact AF)", "1.000",
                    static_cast<unsigned long long>(
                        totalOf(base, &FrameStats::texels)),
                    static_cast<unsigned long long>(
                        totalOf(base, &FrameStats::trilinear_samples)),
                    base.total_energy_nj / 1e3, 1.0);

        for (std::size_t s = 1; s < runs.size(); ++s) {
            const RunResult &r = runs[s];
            const double q = r.mssimAgainst(base.images);
            writePolicyMetrics(w, configs[s], r, q, false);
            const std::uint64_t texels = totalOf(r, &FrameStats::texels);
            const std::uint64_t ops =
                totalOf(r, &FrameStats::trilinear_samples) +
                totalOf(r, &FrameStats::stf_samples);
            std::printf("%-22s %8.3f %12llu %12llu %10.1f %7.3fx"
                        "  (%4.1f%% texels)\n",
                        filterPolicyName(configs[s].scenario), q,
                        static_cast<unsigned long long>(texels),
                        static_cast<unsigned long long>(ops),
                        r.total_energy_nj / 1e3,
                        base.avg_cycles / r.avg_cycles,
                        100.0 * static_cast<double>(texels) / base_texels);
        }
    }

    std::printf("\nexpectation: stf_* trade quality for ~1/8 the texel "
                "fetches (weighted >> uniform); filter_after_shading "
                "keeps quality high at one AF chain per quad; patu sits "
                "between, spending fetches only where AF-SSIM predicts "
                "visible loss.\n");
    return 0;
}
