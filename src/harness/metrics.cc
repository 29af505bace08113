#include "harness/metrics.hh"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iterator>
#include <thread>

#include "power/energy.hh"
#include "simd/dispatch.hh"

namespace pargpu
{

namespace
{

/**
 * The FrameStats counters. Every registry counter is inc'd, zeros
 * included, so the key set is the same in every mode: the filter-mode
 * counters (docs/FILTERING.md) read zero in the paper's scenarios.
 * raster.simd_quads, fb.simd_fills and arena.* count kernel
 * invocations and scratch, which the geometry alone determines, so
 * they are identical across SIMD tiers and execution modes; so is
 * texunit.simd_batches, one per batched filter call.
 */
constexpr FrameCounter kFrameCounters[] = {
    {"total_cycles", nullptr, &FrameStats::total_cycles},
    {"geometry_cycles", "geometry.cycles", &FrameStats::geometry_cycles},
    {"fragment_cycles", "shade.fragment_cycles",
     &FrameStats::fragment_cycles},
    {"texture_filter_cycles", "texunit.filter_cycles",
     &FrameStats::texture_filter_cycles},
    {"texture_mem_stall", "texunit.mem_stall_cycles",
     &FrameStats::texture_mem_stall},
    {"shader_busy_cycles", "shade.busy_cycles",
     &FrameStats::shader_busy_cycles},
    {"triangles_in", "geometry.triangles_in", &FrameStats::triangles_in},
    {"triangles_setup", "geometry.triangles_setup",
     &FrameStats::triangles_setup},
    {"earlyz_tested", "earlyz.tested_pixels", &FrameStats::earlyz_tested},
    {"earlyz_killed", "earlyz.killed_pixels", &FrameStats::earlyz_killed},
    {"quads", "raster.quads", &FrameStats::quads},
    {"pixels_shaded", "shade.pixels", &FrameStats::pixels_shaded},
    {"trilinear_samples", "texunit.trilinear_samples",
     &FrameStats::trilinear_samples},
    {"texels", "texunit.texels", &FrameStats::texels},
    {"addr_ops", "texunit.addr_ops", &FrameStats::addr_ops},
    {"table_accesses", "patu.table_accesses", &FrameStats::table_accesses},
    {"tex_lines", "texunit.lines", &FrameStats::tex_lines},
    {"memo_lookups", "texunit.memo_lookups", &FrameStats::memo_lookups},
    {"memo_hits", "texunit.memo_hits", &FrameStats::memo_hits},
    {"simd_batches", "texunit.simd_batches", &FrameStats::simd_batches},
    {"raster_simd_quads", "raster.simd_quads",
     &FrameStats::raster_simd_quads},
    {"fb_simd_fills", "fb.simd_fills", &FrameStats::fb_simd_fills},
    {"arena_frame_bytes", "arena.frame_bytes",
     &FrameStats::arena_frame_bytes},
    // A peak, not a count: max-folded and set as a scalar by hand.
    {"arena_high_water", nullptr, &FrameStats::arena_high_water},
    {"af_candidate_pixels", "patu.af_candidate_pixels",
     &FrameStats::af_candidate_pixels},
    {"approx_stage1", "patu.approx_stage1", &FrameStats::approx_stage1},
    {"approx_stage2", "patu.approx_stage2", &FrameStats::approx_stage2},
    {"full_af", "patu.full_af", &FrameStats::full_af},
    {"trivial_tf", "patu.trivial_tf", &FrameStats::trivial_tf},
    {"af_input_samples", "patu.af_input_samples",
     &FrameStats::af_input_samples},
    {"shared_samples", "patu.shared_samples", &FrameStats::shared_samples},
    {"divergent_quads", "patu.divergent_quads",
     &FrameStats::divergent_quads},
    {"af_quads", "patu.af_quads", &FrameStats::af_quads},
    {"stf_samples", "texunit.stf_samples", &FrameStats::stf_samples},
    {"fas_quads", "texunit.fas_quads", &FrameStats::fas_quads},
    {"traffic_texture", "mem.traffic.texture_bytes",
     &FrameStats::traffic_texture},
    {"traffic_colordepth", "mem.traffic.color_depth_bytes",
     &FrameStats::traffic_colordepth},
    {"traffic_geometry", "mem.traffic.geometry_bytes",
     &FrameStats::traffic_geometry},
    {"l1_hits", "mem.l1.hits", &FrameStats::l1_hits},
    {"l1_misses", "mem.l1.misses", &FrameStats::l1_misses},
    {"llc_hits", "mem.llc.hits", &FrameStats::llc_hits},
    {"llc_misses", "mem.llc.misses", &FrameStats::llc_misses},
    {"dram_reads", "mem.dram.reads", &FrameStats::dram_reads},
    {"dram_row_hits", "mem.dram.row_hits", &FrameStats::dram_row_hits},
};

// A FrameStats counter without a row fails here: every member is a
// 64-bit counter (filter_policy, reported by hand, is the one more)
// except the cluster shards.
static_assert((std::size(kFrameCounters) + 1) * sizeof(std::uint64_t) +
                      sizeof(std::vector<ClusterStats>) ==
                  sizeof(FrameStats),
              "every FrameStats counter needs a kFrameCounters row");

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

} // namespace

std::span<const FrameCounter>
frameCounters()
{
    return kFrameCounters;
}

StatRegistry
runRegistry(const RunResult &run, double mssim)
{
    StatRegistry reg;
    // Sum the frames' counters once; the arena's high water is a peak,
    // so it folds by max.
    FrameStats t;
    for (const FrameStats &f : run.frames) {
        const std::uint64_t high_water =
            std::max(t.arena_high_water, f.arena_high_water);
        for (const FrameCounter &c : kFrameCounters)
            t.*c.member += f.*c.member;
        t.arena_high_water = high_water;
    }
    for (const FrameCounter &c : kFrameCounters)
        if (c.registry != nullptr)
            reg.inc(c.registry, t.*c.member);

    // The scalars: the high water, the derived ratios and the host tier.
    reg.set("arena.high_water", static_cast<double>(t.arena_high_water));
    reg.set("earlyz.kill_rate", ratio(t.earlyz_killed, t.earlyz_tested));
    reg.set("texunit.lines_per_quad", ratio(t.tex_lines, t.quads));
    reg.set("texunit.memo_hit_rate", ratio(t.memo_hits, t.memo_lookups));
    // simd_width and simd.dispatch describe the host tier and are the
    // only registry keys allowed to differ across PARGPU_SIMD tiers.
    reg.set("texunit.simd_width",
            static_cast<double>(simd::tierLanes(simd::activeTier())));
    reg.set("simd.dispatch",
            static_cast<double>(static_cast<int>(simd::activeTier())));
    // Host-side texel storage of RGBA8 textures (1 = Morton, the only
    // order they are stored in).
    reg.set("texture.morton_storage", 1.0);
    // The mode's filterPolicyCode().
    reg.set("texunit.policy",
            static_cast<double>(run.frames.empty()
                                    ? 0
                                    : run.frames.front().filter_policy));
    reg.set("mem.l1.hit_rate", ratio(t.l1_hits, t.l1_hits + t.l1_misses));
    reg.set("mem.llc.hit_rate",
            ratio(t.llc_hits, t.llc_hits + t.llc_misses));
    reg.set("mem.dram.row_hit_rate", ratio(t.dram_row_hits, t.dram_reads));
    reg.inc("mem.traffic.total_bytes", t.totalTraffic());

    // Energy / run-level aggregates.
    reg.set("energy.total_nj", run.total_energy_nj);
    reg.set("energy.avg_power_w", run.avg_power_w);
    reg.set("run.avg_cycles", run.avg_cycles);
    if (mssim >= 0.0)
        reg.set("run.mssim", mssim);

    // Per-frame distributions (p50/p95/max in the JSON).
    for (const FrameStats &f : run.frames) {
        reg.observe("frame.cycles", static_cast<double>(f.total_cycles));
        reg.observe("frame.texels", static_cast<double>(f.texels));
        reg.observe("frame.dram_bytes",
                    static_cast<double>(f.totalTraffic()));
    }

    // Per-cluster shards of the fragment phase. Present for serial and
    // tile-parallel runs alike (the static `tile % clusters` assignment
    // is the same either way), so the imbalance of that assignment is
    // always visible.
    std::size_t n_clusters = 0;
    for (const FrameStats &f : run.frames)
        n_clusters = std::max(n_clusters, f.clusters.size());
    if (n_clusters > 0) {
        std::vector<ClusterStats> totals(n_clusters);
        for (const FrameStats &f : run.frames) {
            for (std::size_t c = 0; c < f.clusters.size(); ++c) {
                totals[c].tiles += f.clusters[c].tiles;
                totals[c].quads += f.clusters[c].quads;
                totals[c].pixels += f.clusters[c].pixels;
                totals[c].texels += f.clusters[c].texels;
                totals[c].cycles += f.clusters[c].cycles;
                totals[c].filter_busy += f.clusters[c].filter_busy;
                totals[c].mem_stall += f.clusters[c].mem_stall;
            }
        }
        reg.set("cluster.count", static_cast<double>(n_clusters));
        Cycle max_cycles = 0;
        double sum_cycles = 0.0;
        for (std::size_t c = 0; c < n_clusters; ++c) {
            const std::string p = "cluster." + std::to_string(c);
            reg.inc(p + ".tiles", totals[c].tiles);
            reg.inc(p + ".quads", totals[c].quads);
            reg.inc(p + ".pixels", totals[c].pixels);
            reg.inc(p + ".fragment_cycles", totals[c].cycles);
            reg.inc(p + ".texunit.texels", totals[c].texels);
            reg.inc(p + ".texunit.filter_cycles", totals[c].filter_busy);
            reg.inc(p + ".texunit.mem_stall_cycles", totals[c].mem_stall);
            max_cycles = std::max(max_cycles, totals[c].cycles);
            sum_cycles += static_cast<double>(totals[c].cycles);
        }
        // Skew of the static tile assignment: slowest cluster over the
        // mean (1.0 = perfectly balanced; the tile-parallel speedup
        // ceiling is clusters / imbalance).
        if (sum_cycles > 0.0)
            reg.set("cluster.imbalance",
                    static_cast<double>(max_cycles) *
                        static_cast<double>(n_clusters) / sum_cycles);
        for (const FrameStats &f : run.frames)
            for (const ClusterStats &cs : f.clusters)
                reg.observe("frame.tiles_per_cluster",
                            static_cast<double>(cs.tiles));
    }
    return reg;
}

Json
metricsJson(const RunMetadata &meta, const RunConfig &config,
            const RunResult &run, double mssim)
{
    Json root = Json::object();
    root.set("schema", Json{kMetricsSchemaName});
    root.set("schema_version", Json{kMetricsSchemaVersion});

    Json rj = Json::object();
    rj.set("tool", Json{meta.tool});
    rj.set("workload", Json{meta.workload});
    rj.set("width", Json{meta.width});
    rj.set("height", Json{meta.height});
    rj.set("frames", Json{meta.frames});
    // Json holds every number as a double, as this writer always did.
    const detail::Overloaded value{
        [&](DesignScenario RunConfig::*m) {
            return Json{scenarioMetricName(config.*m)};
        },
        [&](bool RunConfig::*m) { return Json{config.*m}; },
        [&](auto m) { return Json{static_cast<double>(config.*m)}; }};
    for (const RunConfigField &f : runConfigFields())
        if (!f.serve_only)
            rj.set(f.name, std::visit(value, f.member));
    rj.set("filter_policy",
           Json{std::string(filterPolicyName(config.scenario))});
    // Host-machine context: makes cross-machine metric comparisons
    // interpretable (the simulated metrics are host-independent; only
    // wall-clock and the active kernel tier depend on these).
    rj.set("hardware_concurrency",
           Json{static_cast<std::uint64_t>(
               std::thread::hardware_concurrency())});
    rj.set("cpu_sse", Json{simd::hostHasSse()});
    rj.set("cpu_avx2", Json{simd::hostHasAvx2()});
    rj.set("simd_dispatch", Json{std::string(
        simd::tierName(simd::activeTier()))});
    root.set("run", std::move(rj));

    Json agg = Json::object();
    agg.set("avg_cycles", Json{run.avg_cycles});
    agg.set("total_energy_nj", Json{run.total_energy_nj});
    agg.set("avg_power_w", Json{run.avg_power_w});
    if (mssim >= 0.0)
        agg.set("mssim", Json{mssim});
    root.set("aggregate", std::move(agg));

    Json frames = Json::array();
    for (const FrameStats &f : run.frames) {
        Json fj = Json::object();
        for (const FrameCounter &c : kFrameCounters)
            fj.set(c.column, Json{f.*c.member});
        frames.push(std::move(fj));
    }
    root.set("frames", std::move(frames));

    root.set("registry", runRegistry(run, mssim).toJson());
    return root;
}

bool
writeMetricsJson(const std::string &path, const RunMetadata &meta,
                 const RunConfig &config, const RunResult &run,
                 double mssim)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << metricsJson(meta, config, run, mssim).dump(1) << "\n";
    return static_cast<bool>(f);
}

bool
writeMetricsCsv(const std::string &path, const RunMetadata &meta,
                const RunConfig &config, const RunResult &run)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "# " << kMetricsSchemaName << "-csv v" << kMetricsSchemaVersion
      << " tool=" << meta.tool << " workload=" << meta.workload
      << " scenario=" << scenarioMetricName(config.scenario) << "\n";
    f << "frame";
    for (const FrameCounter &c : kFrameCounters)
        f << "," << c.column;
    f << ",energy_nj\n";
    for (std::size_t i = 0; i < run.frames.size(); ++i) {
        const FrameStats &fs = run.frames[i];
        f << i;
        for (const FrameCounter &c : kFrameCounters)
            f << "," << fs.*c.member;
        f << "," << computeEnergy(fs).total_nj() << "\n";
    }
    return static_cast<bool>(f);
}

} // namespace pargpu
