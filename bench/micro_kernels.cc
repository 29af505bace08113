/**
 * @file
 * google-benchmark microbenchmarks for the hot kernels: texture
 * filtering, the PATU hash table, the cache model and SSIM.
 *
 * BM_QuadWork times the texel path the simulator runs
 * (TextureUnit::processQuadWork over quads rasterized from one HL2
 * frame). BM_TrilinearSample and BM_AnisotropicFilter time the
 * TextureSampler reference path, which tests compare against but the
 * simulator no longer calls.
 */

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <cstdint>
#include <string>
#include <vector>

#include "pargpu/analysis.hh"
#include "pargpu/config.hh"
#include "pargpu/random.hh"
#include "pargpu/mem.hh"
#include "pargpu/quality.hh"
#include "pargpu/scenes.hh"
#include "pargpu/sim.hh"
#include "pargpu/simd.hh"
#include "pargpu/texture.hh"

using namespace pargpu;

namespace
{

const TextureMap &
benchTexture()
{
    static TextureMap tex(512, 512,
                          generateTexture(TextureKind::Noise, 512, 1));
    return tex;
}

void
BM_TrilinearSample(benchmark::State &state)
{
    TextureSampler s(benchTexture());
    SplitMix64 rng(1);
    for (auto _ : state) {
        Vec2 uv{rng.nextFloat(), rng.nextFloat()};
        benchmark::DoNotOptimize(s.trilinear(uv, 2.3f));
    }
}
BENCHMARK(BM_TrilinearSample);

void
BM_AnisotropicFilter(benchmark::State &state)
{
    TextureSampler s(benchTexture());
    float px = static_cast<float>(state.range(0));
    AnisotropyInfo info =
        s.computeAnisotropy({px / 512.0f, 0.0f}, {0.0f, 1.0f / 512.0f});
    SplitMix64 rng(2);
    for (auto _ : state) {
        Vec2 uv{rng.nextFloat(), rng.nextFloat()};
        benchmark::DoNotOptimize(s.filterAnisotropic(uv, info));
    }
    state.SetLabel("N=" + std::to_string(info.sampleSize));
}
BENCHMARK(BM_AnisotropicFilter)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/** One texture-unit input of the BM_QuadWork set. */
struct QuadJob
{
    QuadFragment quad;
    const TextureMap *tex;
    FilterMode mode;
};

/**
 * Every covered quad of HL2's first frame at 640x512, in draw and
 * raster order, with no depth test (overdrawn quads stay in: they are
 * texel work of the same kind). Built once; the trace owns the textures.
 */
const std::vector<QuadJob> &
hl2Quads()
{
    static const GameTrace trace = buildGameTrace(GameId::HL2, 640, 512, 1);
    static const std::vector<QuadJob> jobs = [] {
        std::vector<QuadJob> out;
        std::vector<SetupTriangle> tris;
        const Camera &cam = trace.cameras.front();
        for (const DrawCall &draw : trace.scene.draws) {
            const Mesh &mesh = draw.mesh;
            const TextureMap *tex =
                trace.scene.textures[static_cast<std::size_t>(
                                         mesh.texture_id)].get();
            const Mat4 mvp = cam.proj * cam.view * draw.model;
            for (std::size_t t = 0; t + 2 < mesh.indices.size(); t += 3) {
                Vertex tv[3];
                for (int k = 0; k < 3; ++k)
                    tv[k] = mesh.vertices[mesh.indices[t + k]];
                tris.clear();
                setupTriangles(tv, mvp, 1.0f, mesh.texture_id, draw.filter,
                               draw.backface_cull, trace.width,
                               trace.height, tris);
                for (const SetupTriangle &st : tris)
                    rasterizeTriangle(st, st.min_x, st.min_y, st.max_x,
                                      st.max_y,
                                      [&](const QuadFragment &q) {
                                          out.push_back({q, tex, st.filter});
                                      });
            }
        }
        return out;
    }();
    return jobs;
}

/**
 * TextureUnit::processQuadWork() over all of hl2Quads() per iteration,
 * under one design scenario. The per_quad counter is the mean host time
 * of one quad; the others are the texture unit's per-quad work.
 */
void
BM_QuadWork(benchmark::State &state, DesignScenario scenario)
{
    const std::vector<QuadJob> &jobs = hl2Quads();
    RunConfig rc;
    rc.scenario = scenario;
    const GpuConfig g = makeGpuConfig(rc);
    MemSysConfig mc = g.mem;
    mc.clusters = g.clusters;
    MemorySystem mem(mc);
    TextureUnit tu(g, 0, mem);
    Color4f out[4];
    for (auto _ : state) {
        for (const QuadJob &j : jobs)
            benchmark::DoNotOptimize(
                tu.processQuadWork(j.quad, *j.tex, j.mode, out));
        benchmark::ClobberMemory();
    }
    const TexUnitStats &st = tu.stats();
    const double quads = static_cast<double>(st.quads);
    state.counters["per_quad"] = benchmark::Counter(
        static_cast<double>(jobs.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
    state.counters["samples_per_quad"] =
        static_cast<double>(st.trilinear_samples) / quads;
    state.counters["memo_lookups_per_quad"] =
        static_cast<double>(st.memo_lookups) / quads;
    state.SetLabel(std::to_string(jobs.size()) + " quads");
}
BENCHMARK_CAPTURE(BM_QuadWork, patu, DesignScenario::Patu)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_QuadWork, baseline, DesignScenario::Baseline)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_QuadWork, noaf, DesignScenario::NoAF)
    ->Unit(benchmark::kMillisecond);

/**
 * The SoA weight-accumulation kernel, each dispatch tier head-to-head on
 * an identical full batch (8 slots x kMaxLanes lanes). Arg is the tier
 * (0 scalar, 1 SSE, 2 AVX2); tiers this build or CPU cannot run report
 * an "unavailable" label instead of numbers.
 */
void
BM_KernelAccumulate(benchmark::State &state)
{
    const auto tier = static_cast<simd::SimdTier>(state.range(0));
    if (static_cast<int>(tier) > static_cast<int>(simd::detectTier())) {
        for (auto _ : state) {
        }
        state.SetLabel(std::string(simd::tierName(tier)) +
                       " unavailable");
        return;
    }
    const simd::SimdTier saved = simd::activeTier();
    simd::setActiveTier(tier);
    const simd::KernelOps &ops = simd::activeKernels();

    static simd::TexelBatch tex;
    static simd::WeightBatch wgt;
    SplitMix64 rng(6);
    for (int s = 0; s < simd::kMaxSlots; ++s) {
        for (int j = 0; j < simd::kMaxLanes; ++j) {
            tex.r[s][j] = rng.nextFloat();
            tex.g[s][j] = rng.nextFloat();
            tex.b[s][j] = rng.nextFloat();
            tex.a[s][j] = rng.nextFloat();
            wgt.w[s][j] = rng.nextFloat() * 0.125f;
        }
    }
    alignas(32) float out_r[simd::kMaxLanes];
    alignas(32) float out_g[simd::kMaxLanes];
    alignas(32) float out_b[simd::kMaxLanes];
    alignas(32) float out_a[simd::kMaxLanes];

    for (auto _ : state) {
        ops.accumulate(tex, wgt, simd::kMaxSlots, simd::kMaxLanes, out_r,
                       out_g, out_b, out_a);
        benchmark::DoNotOptimize(out_r[0]);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * simd::kMaxLanes *
                            simd::kMaxSlots);
    state.SetLabel(ops.name);
    simd::setActiveTier(saved);
}
BENCHMARK(BM_KernelAccumulate)->Arg(0)->Arg(1)->Arg(2);

void
BM_HashTableInsert(benchmark::State &state)
{
    SplitMix64 rng(3);
    TexelAddressTable table;
    for (auto _ : state) {
        table.reset();
        for (int i = 0; i < 16; ++i) {
            TexelAddrSet set;
            Addr base = 0x100 * (1 + rng.nextBounded(4));
            for (int k = 0; k < 8; ++k)
                set[k] = base + k * 4;
            benchmark::DoNotOptimize(table.insert(set));
        }
    }
}
BENCHMARK(BM_HashTableInsert);

void
BM_AfSsimPrediction(benchmark::State &state)
{
    std::vector<float> p = {0.6f, 0.2f, 0.2f};
    for (auto _ : state) {
        benchmark::DoNotOptimize(afSsimFromSampleSize(8));
        benchmark::DoNotOptimize(afSsimFromTxds(txds(p, 5)));
    }
}
BENCHMARK(BM_AfSsimPrediction);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.size_bytes = 16 * 1024;
    cfg.assoc = 4;
    SetAssocCache cache(cfg);
    SplitMix64 rng(4);
    for (auto _ : state) {
        Addr a = rng.nextBounded(1 << 20) * 64;
        benchmark::DoNotOptimize(cache.access(a));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_SsimMap(benchmark::State &state)
{
    int dim = static_cast<int>(state.range(0));
    Image a(dim, dim), b(dim, dim);
    SplitMix64 rng(5);
    for (int y = 0; y < dim; ++y) {
        for (int x = 0; x < dim; ++x) {
            float v = rng.nextFloat();
            a.at(x, y) = Color4f{v, v, v, 1};
            float w = std::min(1.0f, v + 0.05f * rng.nextFloat());
            b.at(x, y) = Color4f{w, w, w, 1};
        }
    }
    // Minor page faults of the whole process (pool workers included).
    auto minorFaults = [] {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        return static_cast<double>(ru.ru_minflt);
    };
    const double faults0 = minorFaults();
    for (auto _ : state)
        benchmark::DoNotOptimize(ssimMap(a, b));
    state.SetItemsProcessed(state.iterations() * dim * dim);
    state.counters["minflt_per_call"] = benchmark::Counter(
        minorFaults() - faults0, benchmark::Counter::kAvgIterations);
}
// 1024^2 is W1-sized: unlike the two small sizes, its frames do not
// fit in cache.
BENCHMARK(BM_SsimMap)->Arg(64)->Arg(256)->Arg(1024);

/**
 * Tier head-to-head for the 2x2 edge-function kernel: one full
 * triangle's worth of quads per iteration, the per-quad work of the
 * rasterizer inner loop.
 */
void
BM_EdgeQuad(benchmark::State &state)
{
    const auto tier = static_cast<simd::SimdTier>(state.range(0));
    if (static_cast<int>(tier) > static_cast<int>(simd::detectTier())) {
        for (auto _ : state) {
        }
        state.SetLabel(std::string(simd::tierName(tier)) +
                       " unavailable");
        return;
    }
    const simd::SimdTier saved = simd::activeTier();
    simd::setActiveTier(tier);
    const simd::KernelOps &ops = simd::activeKernels();

    constexpr int kW = 64, kH = 64;
    simd::EdgeTri tri{};
    tri.ax = 2.0f;
    tri.ay = 3.0f;
    tri.bx = 61.0f;
    tri.by = 9.0f;
    tri.cx = 24.0f;
    tri.cy = 60.0f;
    float area2 = (tri.bx - tri.ax) * (tri.cy - tri.ay) -
        (tri.by - tri.ay) * (tri.cx - tri.ax);
    tri.inv_area = 1.0f / area2;
    tri.z0 = 0.25f;
    tri.z1 = 0.5f;
    tri.z2 = 0.75f;
    tri.iw0 = 1.0f;
    tri.iw1 = 0.5f;
    tri.iw2 = 0.25f;
    tri.uw0 = 0.0f;
    tri.uw1 = 0.5f;
    tri.uw2 = 0.0f;
    tri.vw0 = 0.0f;
    tri.vw1 = 0.0f;
    tri.vw2 = 0.25f;

    std::uint64_t quads = 0;
    for (auto _ : state) {
        unsigned covered = 0;
        for (int qy = 0; qy < kH; qy += 2)
            for (int qx = 0; qx < kW; qx += 2) {
                simd::EdgeQuadOut out;
                ops.edge_quad(tri, qx, qy, 0, 0, kW - 1, kH - 1, out);
                covered += out.coverage;
            }
        benchmark::DoNotOptimize(covered);
        quads += (kW / 2) * (kH / 2);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(quads));
    state.SetLabel(ops.name);
    simd::setActiveTier(saved);
}
BENCHMARK(BM_EdgeQuad)->Arg(0)->Arg(1)->Arg(2);

/**
 * Tier head-to-head for the framebuffer fill kernels: clear one
 * 256x256 color plane and its depth plane per iteration.
 */
void
BM_FbClear(benchmark::State &state)
{
    const auto tier = static_cast<simd::SimdTier>(state.range(0));
    if (static_cast<int>(tier) > static_cast<int>(simd::detectTier())) {
        for (auto _ : state) {
        }
        state.SetLabel(std::string(simd::tierName(tier)) +
                       " unavailable");
        return;
    }
    const simd::SimdTier saved = simd::activeTier();
    simd::setActiveTier(tier);
    const simd::KernelOps &ops = simd::activeKernels();

    constexpr int kPixels = 256 * 256;
    static std::vector<float> color(static_cast<std::size_t>(kPixels) *
                                    4);
    static std::vector<float> depth(kPixels);
    const float rgba[4] = {0.1f, 0.2f, 0.3f, 1.0f};

    for (auto _ : state) {
        ops.fill_color(color.data(), kPixels, rgba);
        ops.fill_depth(depth.data(), kPixels, 1.0f);
        benchmark::DoNotOptimize(color.data());
        benchmark::DoNotOptimize(depth.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kPixels);
    state.SetLabel(ops.name);
    simd::setActiveTier(saved);
}
BENCHMARK(BM_FbClear)->Arg(0)->Arg(1)->Arg(2);

/**
 * Tier head-to-head for the SSIM separable-blur row kernel: one
 * 256-wide horizontal pass (the shape the quality gate runs per image
 * row, twice per SSIM map).
 */
void
BM_SsimRow(benchmark::State &state)
{
    const auto tier = static_cast<simd::SimdTier>(state.range(0));
    if (static_cast<int>(tier) > static_cast<int>(simd::detectTier())) {
        for (auto _ : state) {
        }
        state.SetLabel(std::string(simd::tierName(tier)) +
                       " unavailable");
        return;
    }
    const simd::SimdTier saved = simd::activeTier();
    simd::setActiveTier(tier);
    const simd::KernelOps &ops = simd::activeKernels();

    constexpr int kWidth = 256, kTaps = 11;
    static std::vector<float> src(kWidth + kTaps);
    static std::vector<float> out(kWidth);
    SplitMix64 rng(29);
    for (float &v : src)
        v = rng.nextFloat();
    float k[kTaps];
    float wsum = 0.0f;
    for (int t = 0; t < kTaps; ++t) {
        k[t] = 1.0f + 0.1f * t;
        wsum += k[t];
    }

    for (auto _ : state) {
        ops.ssim_row(src.data(), out.data(), kWidth, 1, k, kTaps, wsum);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kWidth);
    state.SetLabel(ops.name);
    simd::setActiveTier(saved);
}
BENCHMARK(BM_SsimRow)->Arg(0)->Arg(1)->Arg(2);

} // namespace

BENCHMARK_MAIN();
