#include "sim/texunit.hh"

#include <algorithm>

#include "common/contract.hh"

namespace pargpu
{

TextureUnit::TextureUnit(const GpuConfig &config, unsigned cluster,
                         MemorySystem &mem)
    : config_(config), cluster_(cluster), mem_(&mem), patu_(config.patu)
{
    checkBinding();
}

void
TextureUnit::rebind(const GpuConfig &config, MemorySystem &mem)
{
    config_ = config;
    mem_ = &mem;
    patu_.reconfigure(config.patu);
    stats_ = TexUnitStats{};
    checkBinding();
}

void
TextureUnit::checkBinding()
{
    // line_bytes is validated power-of-two by the cache constructors
    // (SetAssocCache), so line-aligning is a mask, not a divide; hoist
    // it once — queueSample() runs per trilinear sample.
    line_mask_ = ~(static_cast<Addr>(mem_->config().line_bytes) - 1);
    PARGPU_ASSERT(config_.addr_alus >= 1 && config_.addr_alus <= 8,
                  "address ALU count must divide the 8-texel footprint: ",
                  config_.addr_alus);
    PARGPU_ASSERT(config_.max_aniso >= 1,
                  "max_aniso must be positive: ", config_.max_aniso);
}

TextureUnit::QuadLineSet::QuadLineSet()
{
    std::fill(std::begin(slot_gen_), std::end(slot_gen_), 0u);
    order_.reserve(512);
}

void
TextureUnit::QuadLineSet::reset()
{
    // Generation stamping invalidates every slot without touching the
    // table; on the (rare) wraparound the stamps are cleared for real.
    if (++gen_ == 0) {
        std::fill(std::begin(slot_gen_), std::end(slot_gen_), 0u);
        gen_ = 1;
    }
    order_.clear();
}

Cycle
TextureUnit::processQuadWork(const QuadFragment &quad,
                             const TextureMap &tex, FilterMode mode,
                             Color4f out_color[4])
{
    ++stats_.quads;

    TextureSampler sampler(tex);
    AnisotropyInfo info = sampler.computeAnisotropy(
        quad.duvdx, quad.duvdy, config_.max_aniso);

    memo_.reset();
    lines_.reset();
    arena_.reset();
    prev_line_[0] = prev_line_[1] = ~static_cast<Addr>(0);
    std::fill(&prev_fp_[0][0], &prev_fp_[0][0] + 8, kInvalidAddr);

    PixelPlan plans[4];
    // Stored AF sample address sets per pixel, when the decision requires
    // them (arena-backed: recycled wholesale at the next quad).
    std::span<TexelAddrSet> footprints[4];

    bool any_af_pixel = false;
    bool any_approx = false;
    bool any_keep = false;

    if (mode != FilterMode::Anisotropic) {
        // Isotropic draw calls: one trilinear sample per covered pixel
        // (bilinear uses LOD 0, which degenerates to a single-level
        // footprint). The LOD — and hence the level selection — is
        // quad-wide, so the covered pixels batch into one QuadFilter
        // gather. Memo probes run in pixel order and line collection
        // follows in the same pixel order, exactly as the per-pixel
        // loop issued them.
        const float lod = mode == FilterMode::Bilinear ? 0.0f : info.lodTF;
        const LodSelect sel = sampler.selectLod(lod);
        Vec2 uvs[4];
        int px[4];
        int n = 0;
        for (int i = 0; i < 4; ++i) {
            if (!(quad.coverage & (1u << i)))
                continue;
            plans[i].active = true;
            ++stats_.pixels;
            uvs[n] = quad.uv[i];
            px[n] = i;
            ++n;
        }
        if (n > 0) {
            TexelAddrSet aset[4];
            Color4f cols[4];
            filterBatch(sampler, uvs, n, sel, aset, cols);
            for (int k = 0; k < n; ++k) {
                PixelPlan &plan = plans[px[k]];
                plan.color = cols[k];
                plan.fetch_samples = 1;
                plan.addr_samples = 1;
                plan.filter_texels = 8;
                queueSample(aset[k]);
            }
        }
    } else {
        // Anisotropic path with the PATU decision flow (Fig. 13). The
        // pre-decision is a pure function of the quad-wide
        // AnisotropyInfo, so every covered pixel reaches the same
        // PixelDecision, and one preDecide() serves the quad. When no
        // distribution check is needed, the quad takes one uniform branch
        // and the pixels' sample batches concatenate — in pixel order,
        // preserving the memo probe and line first-touch sequences — into
        // a single QuadFilter gather.
        PARGPU_ASSERT(info.sampleSize >= 1,
                      "anisotropy N must be >= 1: ", info.sampleSize);
        int act[4];
        int n_act = 0;
        for (int i = 0; i < 4; ++i) {
            if (!(quad.coverage & (1u << i)))
                continue;
            plans[i].active = true;
            ++stats_.pixels;
            if (info.sampleSize > 1) {
                ++stats_.af_candidate_pixels;
                any_af_pixel = true;
            }
            act[n_act++] = i;
        }
        // Filter-mode dispatch (docs/FILTERING.md): the coverage prolog
        // above and the divergence/Fig. 12 epilog below are shared; only
        // the filtering strategy in between is mode-specific. The paper's
        // five scenarios all run the PATU decision flow.
        switch (config_.patu.scenario) {
          case DesignScenario::StfUniform:
            anisoQuadStf(quad, sampler, info, plans, act, n_act,
                         StfVariant::Uniform);
            break;
          case DesignScenario::StfBlue:
            anisoQuadStf(quad, sampler, info, plans, act, n_act,
                         StfVariant::Blue);
            break;
          case DesignScenario::StfWeighted:
            anisoQuadStf(quad, sampler, info, plans, act, n_act,
                         StfVariant::Weighted);
            break;
          case DesignScenario::FilterAfterShading:
            anisoQuadFas(quad, sampler, info, plans, act, n_act);
            break;
          default:
            anisoQuadPatu(quad, sampler, info, plans, footprints, act,
                          n_act, any_approx, any_keep);
            break;
        }
    }

    stats_.lines += lines_.order().size();
    stats_.memo_lookups += memo_.lookups();
    stats_.memo_hits += memo_.hits();
    stats_.simd_batches += qfilter_.takeBatches();

    // --- Timing -----------------------------------------------------
    // Address ALUs: 8 addresses per trilinear sample over addr_alus ALUs
    // per pixel pipeline; the four pipelines run in lockstep so the quad
    // pays the slowest pixel. The 8 filtering ALUs blend 8 texels per
    // cycles_per_trilinear, rounded up per pixel — exactly
    // fetch_samples * cycles_per_trilinear for full 8-texel samples, and
    // proportionally less for the single-texel STF modes.
    Cycle addr_cycles = 0, filter_cycles = 0;
    for (const PixelPlan &plan : plans) {
        if (!plan.active)
            continue;
        Cycle a = static_cast<Cycle>(plan.addr_samples) *
            (8 / config_.addr_alus);
        Cycle f = (static_cast<Cycle>(plan.filter_texels) *
                       config_.cycles_per_trilinear + 7) / 8;
        addr_cycles = std::max(addr_cycles, a);
        filter_cycles = std::max(filter_cycles, f);
        stats_.addr_ops +=
            static_cast<std::uint64_t>(plan.addr_samples) * 8;
    }

    // Divergence accounting (Section V-C(1)).
    if (any_af_pixel) {
        ++stats_.af_quads;
        if (any_approx && any_keep)
            ++stats_.divergent_quads;
    }

    // Fig. 12 statistic: how many AF input samples share texel sets,
    // measured on the pixels whose footprints were materialized.
    for (int i = 0; i < 4; ++i) {
        if (footprints[i].size() > 1) {
            stats_.af_input_samples += footprints[i].size();
            const int shared = plans[i].shared_samples >= 0
                ? plans[i].shared_samples
                : patu_.countSharedSamples(footprints[i]);
            stats_.shared_samples += static_cast<std::uint64_t>(shared);
        }
    }

    for (int i = 0; i < 4; ++i)
        out_color[i] = plans[i].color;
    const Cycle work = addr_cycles + filter_cycles;
    stats_.filter_busy += work;
    return work;
}

void
TextureUnit::anisoQuadPatu(const QuadFragment &quad,
                           const TextureSampler &sampler,
                           const AnisotropyInfo &info, PixelPlan plans[4],
                           std::span<TexelAddrSet> footprints[4],
                           const int act[4], int n_act, bool &any_approx,
                           bool &any_keep)
{
    if (n_act == 0)
        return;
    // One evaluation covers the quad: the info is quad-wide and the
    // pre-decision is a pure function of it.
    PixelDecision d = patu_.preDecide(info);

    if (d.need_distribution) {
        // Stage-2 scenarios interleave footprint generation, the
        // hash-table check and a possible TF recalculation per pixel,
        // and the decision can diverge across the quad: stay
        // per-pixel.
        for (int a = 0; a < n_act; ++a) {
            const int i = act[a];
            PixelPlan &plan = plans[i];
            PixelDecision di = d; // Identical for every pixel.

            // Texel Address Calculation for all N samples, fed into
            // the hash table as each sample's addresses complete
            // (overlapped with address calculation, Section V-B). The
            // check needs no colors: AF's are fetched and blended below
            // only if the pixel keeps AF.
            footprints[i] = arena_.allocSpanUninit<TexelAddrSet>(
                static_cast<std::size_t>(info.sampleSize));
            qfilter_.anisotropicAddrs(sampler, quad.uv[i], info, memo_,
                                      footprints[i].data());
            plan.addr_samples = static_cast<int>(footprints[i].size());
            stats_.table_accesses += footprints[i].size();
            plan.shared_samples =
                patu_.finishDistribution(di, info, footprints[i]);

            plan.approximate = di.approximate;
            plan.stage = di.stage;
            switch (di.stage) {
              case DecisionStage::Distribution:
                ++stats_.approx_stage2;
                break;
              case DecisionStage::FullAf:
                ++stats_.full_af;
                break;
              default:
                PARGPU_INVARIANT(false, "distribution check returned "
                                        "a non-stage-2 decision");
            }

            if (di.approximate) {
                any_approx = any_approx || info.sampleSize > 1;
                // The decision LOD must be a usable mip coordinate
                // (trilinearInto() clamps the top end against the
                // actual chain length).
                PARGPU_ASSERT(di.lod >= 0.0f && di.lod <= 32.0f,
                              "decision LOD out of mip-chain bounds: ",
                              di.lod);
                // TF at the decision's LOD. Stage-2 approximations
                // pay one extra address-recalculation loop
                // (Section V-B).
                TexelAddrSet tf_addrs;
                filterBatch(sampler, &quad.uv[i], 1,
                            sampler.selectLod(di.lod), &tf_addrs,
                            &plan.color);
                plan.fetch_samples = 1;
                plan.filter_texels = 8;
                plan.addr_samples += 1;
                queueSample(tf_addrs);
            } else {
                any_keep = any_keep || info.sampleSize > 1;
                // Reuse the footprints from the distribution check; the
                // color re-reads them without another counted probe.
                if (config_.colors)
                    plan.color = qfilter_.anisotropicColor(
                        sampler, quad.uv[i], info, memo_);
                plan.fetch_samples =
                    static_cast<int>(footprints[i].size());
                plan.filter_texels = 8 * plan.fetch_samples;
                for (const TexelAddrSet &s : footprints[i])
                    queueSample(s);
            }
        }
    } else {
        for (int a = 0; a < n_act; ++a) {
            plans[act[a]].approximate = d.approximate;
            plans[act[a]].stage = d.stage;
            switch (d.stage) {
              case DecisionStage::TrivialTf:
                ++stats_.trivial_tf;
                break;
              case DecisionStage::SampleArea:
                ++stats_.approx_stage1;
                break;
              case DecisionStage::FullAf:
                ++stats_.full_af;
                break;
              case DecisionStage::Forced:
                if (d.approximate)
                    ++stats_.trivial_tf;
                else
                    ++stats_.full_af;
                break;
              case DecisionStage::Distribution:
                PARGPU_INVARIANT(false, "stage-2 decision without a "
                                        "distribution check");
            }
        }

        if (d.approximate) {
            any_approx = any_approx || info.sampleSize > 1;
            PARGPU_ASSERT(d.lod >= 0.0f && d.lod <= 32.0f,
                          "decision LOD out of mip-chain bounds: ",
                          d.lod);
            // TF at the decision's LOD: one sample per covered
            // pixel, all at the same level selection — one batch.
            TexelAddrSet aset[4];
            Color4f cols[4];
            Vec2 uvs[4];
            for (int a = 0; a < n_act; ++a)
                uvs[a] = quad.uv[act[a]];
            filterBatch(sampler, uvs, n_act, sampler.selectLod(d.lod), aset,
                        cols);
            for (int a = 0; a < n_act; ++a) {
                PixelPlan &plan = plans[act[a]];
                plan.color = cols[a];
                plan.fetch_samples = 1;
                plan.filter_texels = 8;
                plan.addr_samples += 1;
                queueSample(aset[a]);
            }
        } else {
            // Baseline / AF-SSIM(N) kept AF without the distribution
            // stage: every covered pixel issues the same N samples
            // at AF's level selection — one batch for the quad.
            any_keep = any_keep || info.sampleSize > 1;
            const int n = info.sampleSize;
            PARGPU_ASSERT(n_act * n <= simd::kMaxLanes,
                          "quad AF batch exceeds the SoA lane count: ",
                          n_act * n);
            std::span<TexelAddrSet> s =
                arena_.allocSpanUninit<TexelAddrSet>(
                    static_cast<std::size_t>(n_act) * n);
            Color4f *cols = scratch_cols_;
            Vec2 *uvs = scratch_uvs_;
            for (int a = 0; a < n_act; ++a)
                qfilter_.anisoUvs(quad.uv[act[a]], info,
                                  uvs + a * static_cast<std::size_t>(n));
            filterBatch(sampler, uvs, n_act * n,
                        sampler.selectLod(info.lodAF), s.data(), cols);
            for (int a = 0; a < n_act; ++a) {
                const int i = act[a];
                footprints[i] =
                    s.subspan(static_cast<std::size_t>(a) * n,
                              static_cast<std::size_t>(n));
                PixelPlan &plan = plans[i];
                if (config_.colors)
                    plan.color = simd::QuadFilter::averageColors(
                        cols + static_cast<std::size_t>(a) * n, n);
                plan.addr_samples = n;
                plan.fetch_samples = n;
                plan.filter_texels = 8 * n;
                for (const TexelAddrSet &smp : footprints[i])
                    queueSample(smp);
            }
        }
    }
}

void
TextureUnit::anisoQuadStf(const QuadFragment &quad,
                          const TextureSampler &sampler,
                          const AnisotropyInfo &info, PixelPlan plans[4],
                          const int act[4], int n_act, StfVariant variant)
{
    // Stochastic texture filtering (docs/FILTERING.md): every AF sample
    // position still computes its footprint's addresses (the address
    // pipeline is unchanged), but only ONE stochastically chosen texel
    // per sample is fetched and blended — 1/8 of the texel traffic of
    // full AF, with noise instead of blur as the error term. The PATU
    // predictor is bypassed entirely.
    if (n_act == 0)
        return;
    const TextureMap &tex = sampler.texture();
    const LodSelect sel = sampler.selectLod(info.lodAF);
    const int n = info.sampleSize;
    const bool weighted = variant == StfVariant::Weighted;
    const float inv_n = 1.0f / static_cast<float>(n);
    Vec2 *uvs = scratch_uvs_;
    for (int a = 0; a < n_act; ++a) {
        const int i = act[a];
        PixelPlan &plan = plans[i];
        const int px = quad.x + (i & 1);
        const int py = quad.y + (i >> 1);
        // Same sample placement along the anisotropy's major axis as the
        // exact path (QuadFilter's helper).
        simd::QuadFilter::anisoUvs(quad.uv[i], info, uvs);
        Color4f acc{0.0f, 0.0f, 0.0f, 0.0f};
        for (int smp = 0; smp < n; ++smp) {
            const float u = stfSampleU(variant, px, py, smp, frame_seed_);
            StfTexelChoice c = stfSelectTexel(tex, uvs[smp], sel, weighted,
                                              u);
            queueTexel(c.addr);
            acc += c.estimator * inv_n;
        }
        plan.color = acc;
        plan.fetch_samples = n;
        plan.addr_samples = n;
        plan.filter_texels = n; // One texel blended per sample.
    }
}

void
TextureUnit::anisoQuadFas(const QuadFragment &quad,
                          const TextureSampler &sampler,
                          const AnisotropyInfo &info, PixelPlan plans[4],
                          const int act[4], int n_act)
{
    // Filtering after shading (docs/FILTERING.md): each covered pixel
    // takes ONE sharp trilinear sample at its footprint centroid at AF's
    // LOD (no blur from TF's coarser level), and the filtering moves
    // downstream of sampling — the quad's results are blended with a
    // tent kernel over the 2x2. In this pipeline the downstream shader
    // is an affine modulation, so filtering the sampled colors across
    // the quad is exactly filtering the shaded results, minus any
    // shader nonlinearity.
    if (n_act == 0)
        return;
    TexelAddrSet aset[4];
    Color4f cols[4];
    Vec2 uvs[4];
    for (int a = 0; a < n_act; ++a)
        uvs[a] = quad.uv[act[a]];
    qfilter_.filterSamplesAddrs(sampler, uvs, n_act,
                                sampler.selectLod(info.lodAF), memo_, aset,
                                cols);
    const Color4f mean = simd::QuadFilter::averageColors(cols, n_act);
    for (int a = 0; a < n_act; ++a) {
        PixelPlan &plan = plans[act[a]];
        plan.color = (cols[a] + mean) * 0.5f;
        plan.fetch_samples = 1;
        plan.addr_samples = 1;
        plan.filter_texels = 12; // 8-texel trilinear + 4-color quad blend.
        queueSample(aset[a]);
    }
    ++stats_.fas_quads;
}

QuadFilterResult
TextureUnit::processQuad(const QuadFragment &quad, const TextureMap &tex,
                         FilterMode mode, Cycle now)
{
    QuadFilterResult result;
    Cycle work = processQuadWork(quad, tex, mode, result.color);

    // One batched memory-system call for every distinct line the quad
    // touched, in first-touch order: a single tag lookup per line. All
    // sample fetches of a quad issue at the same cycle (as in the seed),
    // so the furthest completion is the max over the distinct lines.
    Cycle fetch_done = mem_->readLines(cluster_, lines_.order(), now,
                                       TrafficClass::Texture);
    PARGPU_INVARIANT(fetch_done >= now,
                     "memory time ran backwards: now=", now,
                     " done=", fetch_done);

    // Fetch latency beyond the TU's in-flight window stalls the pipeline.
    Cycle raw_latency = fetch_done - now;
    Cycle stall = raw_latency > config_.mem_overlap_credit
        ? raw_latency - config_.mem_overlap_credit : 0;
    accountStall(stall);

    result.busy = work + stall;
    return result;
}

} // namespace pargpu
