#include "harness/metrics.hh"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <thread>

#include "power/energy.hh"
#include "simd/dispatch.hh"

namespace pargpu
{

namespace
{

/** One FrameStats column: name + accessor (all fields are integral). */
struct FrameField
{
    const char *name;
    std::uint64_t (*get)(const FrameStats &);
};

/** Field table shared by the JSON and CSV writers (order = CSV order). */
constexpr FrameField kFrameFields[] = {
    {"total_cycles", [](const FrameStats &f) { return f.total_cycles; }},
    {"geometry_cycles",
     [](const FrameStats &f) { return f.geometry_cycles; }},
    {"fragment_cycles",
     [](const FrameStats &f) { return f.fragment_cycles; }},
    {"texture_filter_cycles",
     [](const FrameStats &f) { return f.texture_filter_cycles; }},
    {"texture_mem_stall",
     [](const FrameStats &f) { return f.texture_mem_stall; }},
    {"shader_busy_cycles",
     [](const FrameStats &f) { return f.shader_busy_cycles; }},
    {"triangles_in", [](const FrameStats &f) { return f.triangles_in; }},
    {"triangles_setup",
     [](const FrameStats &f) { return f.triangles_setup; }},
    {"earlyz_tested", [](const FrameStats &f) { return f.earlyz_tested; }},
    {"earlyz_killed", [](const FrameStats &f) { return f.earlyz_killed; }},
    {"quads", [](const FrameStats &f) { return f.quads; }},
    {"pixels_shaded", [](const FrameStats &f) { return f.pixels_shaded; }},
    {"trilinear_samples",
     [](const FrameStats &f) { return f.trilinear_samples; }},
    {"texels", [](const FrameStats &f) { return f.texels; }},
    {"addr_ops", [](const FrameStats &f) { return f.addr_ops; }},
    {"table_accesses",
     [](const FrameStats &f) { return f.table_accesses; }},
    {"tex_lines", [](const FrameStats &f) { return f.tex_lines; }},
    {"memo_lookups", [](const FrameStats &f) { return f.memo_lookups; }},
    {"memo_hits", [](const FrameStats &f) { return f.memo_hits; }},
    {"simd_batches", [](const FrameStats &f) { return f.simd_batches; }},
    {"raster_simd_quads",
     [](const FrameStats &f) { return f.raster_simd_quads; }},
    {"fb_simd_fills", [](const FrameStats &f) { return f.fb_simd_fills; }},
    {"arena_frame_bytes",
     [](const FrameStats &f) { return f.arena_frame_bytes; }},
    {"arena_high_water",
     [](const FrameStats &f) { return f.arena_high_water; }},
    {"af_candidate_pixels",
     [](const FrameStats &f) { return f.af_candidate_pixels; }},
    {"approx_stage1", [](const FrameStats &f) { return f.approx_stage1; }},
    {"approx_stage2", [](const FrameStats &f) { return f.approx_stage2; }},
    {"full_af", [](const FrameStats &f) { return f.full_af; }},
    {"trivial_tf", [](const FrameStats &f) { return f.trivial_tf; }},
    {"af_input_samples",
     [](const FrameStats &f) { return f.af_input_samples; }},
    {"shared_samples",
     [](const FrameStats &f) { return f.shared_samples; }},
    {"divergent_quads",
     [](const FrameStats &f) { return f.divergent_quads; }},
    {"af_quads", [](const FrameStats &f) { return f.af_quads; }},
    {"stf_samples", [](const FrameStats &f) { return f.stf_samples; }},
    {"fas_quads", [](const FrameStats &f) { return f.fas_quads; }},
    {"traffic_texture",
     [](const FrameStats &f) { return f.traffic_texture; }},
    {"traffic_colordepth",
     [](const FrameStats &f) { return f.traffic_colordepth; }},
    {"traffic_geometry",
     [](const FrameStats &f) { return f.traffic_geometry; }},
    {"l1_hits", [](const FrameStats &f) { return f.l1_hits; }},
    {"l1_misses", [](const FrameStats &f) { return f.l1_misses; }},
    {"llc_hits", [](const FrameStats &f) { return f.llc_hits; }},
    {"llc_misses", [](const FrameStats &f) { return f.llc_misses; }},
    {"dram_reads", [](const FrameStats &f) { return f.dram_reads; }},
    {"dram_row_hits", [](const FrameStats &f) { return f.dram_row_hits; }},
};

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

} // namespace

void
buildRunRegistry(const RunResult &run, StatRegistry &reg, double mssim)
{
    // Aggregate the per-frame stats once.
    FrameStats t;
    for (const FrameStats &f : run.frames) {
        t.geometry_cycles += f.geometry_cycles;
        t.fragment_cycles += f.fragment_cycles;
        t.shader_busy_cycles += f.shader_busy_cycles;
        t.texture_filter_cycles += f.texture_filter_cycles;
        t.texture_mem_stall += f.texture_mem_stall;
        t.triangles_in += f.triangles_in;
        t.triangles_setup += f.triangles_setup;
        t.earlyz_tested += f.earlyz_tested;
        t.earlyz_killed += f.earlyz_killed;
        t.quads += f.quads;
        t.pixels_shaded += f.pixels_shaded;
        t.trilinear_samples += f.trilinear_samples;
        t.texels += f.texels;
        t.addr_ops += f.addr_ops;
        t.table_accesses += f.table_accesses;
        t.tex_lines += f.tex_lines;
        t.memo_lookups += f.memo_lookups;
        t.memo_hits += f.memo_hits;
        t.simd_batches += f.simd_batches;
        t.raster_simd_quads += f.raster_simd_quads;
        t.fb_simd_fills += f.fb_simd_fills;
        t.arena_frame_bytes += f.arena_frame_bytes;
        t.arena_high_water =
            std::max(t.arena_high_water, f.arena_high_water);
        t.af_candidate_pixels += f.af_candidate_pixels;
        t.approx_stage1 += f.approx_stage1;
        t.approx_stage2 += f.approx_stage2;
        t.full_af += f.full_af;
        t.trivial_tf += f.trivial_tf;
        t.af_input_samples += f.af_input_samples;
        t.shared_samples += f.shared_samples;
        t.divergent_quads += f.divergent_quads;
        t.af_quads += f.af_quads;
        t.stf_samples += f.stf_samples;
        t.fas_quads += f.fas_quads;
        t.traffic_texture += f.traffic_texture;
        t.traffic_colordepth += f.traffic_colordepth;
        t.traffic_geometry += f.traffic_geometry;
        t.l1_hits += f.l1_hits;
        t.l1_misses += f.l1_misses;
        t.llc_hits += f.llc_hits;
        t.llc_misses += f.llc_misses;
        t.dram_reads += f.dram_reads;
        t.dram_row_hits += f.dram_row_hits;
    }

    // Geometry front-end.
    reg.inc("geometry.cycles", t.geometry_cycles);
    reg.inc("geometry.triangles_in", t.triangles_in);
    reg.inc("geometry.triangles_setup", t.triangles_setup);

    // Rasterizer + early depth test. raster.simd_quads counts edge_quad
    // kernel evaluations (covered or not); like fb.simd_fills and the
    // arena.* scalars below it is invocation-granular and geometry-
    // determined, so the values are identical across SIMD tiers and
    // execution modes.
    reg.inc("raster.quads", t.quads);
    reg.inc("raster.simd_quads", t.raster_simd_quads);
    reg.inc("fb.simd_fills", t.fb_simd_fills);
    reg.inc("arena.frame_bytes", t.arena_frame_bytes);
    reg.set("arena.high_water",
            static_cast<double>(t.arena_high_water));
    reg.inc("earlyz.tested_pixels", t.earlyz_tested);
    reg.inc("earlyz.killed_pixels", t.earlyz_killed);
    reg.set("earlyz.kill_rate", ratio(t.earlyz_killed, t.earlyz_tested));

    // Fragment shading.
    reg.inc("shade.pixels", t.pixels_shaded);
    reg.inc("shade.busy_cycles", t.shader_busy_cycles);
    reg.inc("shade.fragment_cycles", t.fragment_cycles);

    // Texture unit (filtering dataflow).
    reg.inc("texunit.filter_cycles", t.texture_filter_cycles);
    reg.inc("texunit.mem_stall_cycles", t.texture_mem_stall);
    reg.inc("texunit.trilinear_samples", t.trilinear_samples);
    reg.inc("texunit.texels", t.texels);
    reg.inc("texunit.addr_ops", t.addr_ops);
    reg.inc("texunit.lines", t.tex_lines);
    reg.set("texunit.lines_per_quad", ratio(t.tex_lines, t.quads));
    reg.inc("texunit.memo_lookups", t.memo_lookups);
    reg.inc("texunit.memo_hits", t.memo_hits);
    reg.set("texunit.memo_hit_rate", ratio(t.memo_hits, t.memo_lookups));
    // SoA batch-filter host-path counters. simd_batches is dispatch-tier
    // independent (one per batched filter call); simd_width and
    // simd.dispatch describe the host tier and are the only registry keys
    // allowed to differ across PARGPU_SIMD tiers.
    reg.inc("texunit.simd_batches", t.simd_batches);
    reg.set("texunit.simd_width",
            static_cast<double>(simd::tierLanes(simd::activeTier())));
    reg.set("simd.dispatch",
            static_cast<double>(static_cast<int>(simd::activeTier())));
    // Host-side texel storage of RGBA8 textures (1 = Morton, the only
    // order they are stored in).
    reg.set("texture.morton_storage", 1.0);

    // Filter-mode reporting (docs/FILTERING.md). Counters are emitted
    // unconditionally (zero in the paper's scenarios) so the registry key
    // set is identical across modes; texunit.policy is the mode's
    // filterPolicyCode().
    reg.set("texunit.policy",
            static_cast<double>(run.frames.empty()
                                    ? 0
                                    : run.frames.front().filter_policy));
    reg.inc("texunit.stf_samples", t.stf_samples);
    reg.inc("texunit.fas_quads", t.fas_quads);

    // PATU prediction.
    reg.inc("patu.table_accesses", t.table_accesses);
    reg.inc("patu.af_candidate_pixels", t.af_candidate_pixels);
    reg.inc("patu.approx_stage1", t.approx_stage1);
    reg.inc("patu.approx_stage2", t.approx_stage2);
    reg.inc("patu.full_af", t.full_af);
    reg.inc("patu.trivial_tf", t.trivial_tf);
    reg.inc("patu.af_input_samples", t.af_input_samples);
    reg.inc("patu.shared_samples", t.shared_samples);
    reg.inc("patu.divergent_quads", t.divergent_quads);
    reg.inc("patu.af_quads", t.af_quads);

    // Memory hierarchy.
    reg.inc("mem.l1.hits", t.l1_hits);
    reg.inc("mem.l1.misses", t.l1_misses);
    reg.set("mem.l1.hit_rate", ratio(t.l1_hits, t.l1_hits + t.l1_misses));
    reg.inc("mem.llc.hits", t.llc_hits);
    reg.inc("mem.llc.misses", t.llc_misses);
    reg.set("mem.llc.hit_rate",
            ratio(t.llc_hits, t.llc_hits + t.llc_misses));
    reg.inc("mem.dram.reads", t.dram_reads);
    reg.inc("mem.dram.row_hits", t.dram_row_hits);
    reg.set("mem.dram.row_hit_rate", ratio(t.dram_row_hits, t.dram_reads));
    reg.inc("mem.traffic.texture_bytes", t.traffic_texture);
    reg.inc("mem.traffic.color_depth_bytes", t.traffic_colordepth);
    reg.inc("mem.traffic.geometry_bytes", t.traffic_geometry);
    reg.inc("mem.traffic.total_bytes",
            t.traffic_texture + t.traffic_colordepth + t.traffic_geometry);

    // Energy / run-level aggregates.
    reg.set("energy.total_nj", run.total_energy_nj);
    reg.set("energy.avg_power_w", run.avg_power_w);
    reg.set("run.avg_cycles", run.avg_cycles);
    if (mssim >= 0.0)
        reg.set("run.mssim", mssim);

    // Per-frame distributions (p50/p95/max in the snapshot).
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
        for (const FrameField &field : kFrameFields)
            fj.set(field.name, Json{field.get(f)});
        frames.push(std::move(fj));
    }
    root.set("frames", std::move(frames));

    StatRegistry reg;
    buildRunRegistry(run, reg, mssim);
    root.set("registry", reg.snapshot().toJson());
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
    for (const FrameField &field : kFrameFields)
        f << "," << field.name;
    f << ",energy_nj\n";
    for (std::size_t i = 0; i < run.frames.size(); ++i) {
        const FrameStats &fs = run.frames[i];
        f << i;
        for (const FrameField &field : kFrameFields)
            f << "," << field.get(fs);
        f << "," << computeEnergy(fs).total_nj() << "\n";
    }
    return static_cast<bool>(f);
}

} // namespace pargpu
