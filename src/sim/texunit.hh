/**
 * @file
 * The texture unit: the blue block of the paper's Fig. 2 extended with the
 * PATU components of Fig. 14.
 *
 * Per quad (the SIMD processing unit), each covered pixel flows through:
 *   Texel Generation (anisotropy/sample size) -> [PATU stage 1] ->
 *   Texture Quality Selection (LOD) -> Texel Address Calculation ->
 *   [PATU hash table + stage 2] -> Texel Fetching (caches/DRAM) ->
 *   Filtering (2 cycles per trilinear sample).
 *
 * Timing: the four filtering pipelines operate in lockstep, so per-quad
 * busy time is the max over pixels of address + filter cycles; texel-fetch
 * latency beyond the unit's in-flight window is exposed as stall.
 */

#ifndef PARGPU_SIM_TEXUNIT_HH
#define PARGPU_SIM_TEXUNIT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.hh"
#include "common/contract.hh"
#include "common/types.hh"
#include "core/patu.hh"
#include "mem/memsys.hh"
#include "sim/config.hh"
#include "sim/raster.hh"
#include "simd/filter.hh"
#include "texture/filter_policy.hh"

namespace pargpu
{

/** Per-frame activity counters of one texture unit. */
struct TexUnitStats
{
    std::uint64_t pixels = 0;           ///< Pixels filtered.
    std::uint64_t quads = 0;            ///< Quads processed.
    std::uint64_t trilinear_samples = 0;///< Trilinear samples filtered.
    std::uint64_t texels = 0;           ///< Texels requested (8/sample).
    std::uint64_t addr_ops = 0;         ///< Address calculations (texels).
    std::uint64_t table_accesses = 0;   ///< Hash-table insert operations.
    std::uint64_t lines = 0;            ///< Distinct cache lines per quad,
                                        ///< summed (batched fetch size).
    std::uint64_t memo_lookups = 0;     ///< Footprint-memo probes.
    std::uint64_t memo_hits = 0;        ///< ... that found the footprint.
    std::uint64_t simd_batches = 0;     ///< SoA kernel invocations.
    Cycle filter_busy = 0;              ///< TU busy cycles (Fig. 18 metric).
    Cycle mem_stall = 0;                ///< Exposed texel-fetch stall.

    // PATU decision counters.
    std::uint64_t af_candidate_pixels = 0; ///< Pixels with N > 1.
    std::uint64_t approx_stage1 = 0;
    std::uint64_t approx_stage2 = 0;
    std::uint64_t full_af = 0;
    std::uint64_t trivial_tf = 0;

    // Section V-C / Fig. 12 statistics.
    std::uint64_t af_input_samples = 0; ///< AF samples inspected (N > 1).
    std::uint64_t shared_samples = 0;   ///< ... that share a texel set.
    std::uint64_t divergent_quads = 0;  ///< Quads with mixed decisions.
    std::uint64_t af_quads = 0;         ///< Quads with any N > 1 pixel.

    // STF / filter-after-shading counters (docs/FILTERING.md). Zero in
    // the paper's five scenarios.
    std::uint64_t stf_samples = 0;      ///< Single-texel stochastic fetches.
    std::uint64_t fas_quads = 0;        ///< Quads filtered after shading.
};

/** Result of filtering one quad. */
struct QuadFilterResult
{
    Color4f color[4]; ///< Filtered texture color per pixel.
    Cycle busy = 0;   ///< TU cycles consumed by this quad.
};

/**
 * One texture unit: the PATU decision pipelines plus the quad's texel
 * fetch. GpuSimulator runs one per host worker through
 * processQuadWork(), which touches no memory-system state, and folds
 * each tile's stats into the owning cluster's shard. processQuad() is
 * the self-contained variant that also issues the timed reads.
 */
class TextureUnit
{
  public:
    /**
     * @param config   GPU configuration (timing + PATU knobs).
     * @param cluster  Owning cluster index (selects the texture L1).
     * @param mem      Shared memory system.
     */
    TextureUnit(const GpuConfig &config, unsigned cluster,
                MemorySystem &mem);

    /**
     * Filter all covered pixels of @p quad against @p tex and read its
     * lines through the cluster's L1, the LLC and DRAM at @p now: the
     * quad-at-a-time reference of the pipeline's three fragment phases.
     * Call it only in the memory system's serial phase (MemorySystem).
     *
     * @param quad  Rasterizer output (uv + derivatives).
     * @param tex   Bound texture.
     * @param mode  Draw call's filter mode.
     * @param now   TU-local current cycle (for memory timing).
     * @return Per-pixel colors and consumed cycles.
     */
    QuadFilterResult processQuad(const QuadFragment &quad,
                                 const TextureMap &tex, FilterMode mode,
                                 Cycle now);

    /**
     * Everything about a quad that does not depend on memory timing:
     * filtering decisions, colors, the quad's distinct cache lines (see
     * quadLines()) and every counter except mem_stall. Returns the
     * quad's address + filter cycles, which it also adds to filter_busy.
     * With GpuConfig::colors off, the isotropic and PATU-flow paths
     * leave @p out_color at Color4f{} and every other output unchanged.
     *
     * A pure function of the quad and the frame seed: the footprint
     * memo, line set and arena restart per quad, and every counter is
     * an integer sum. GpuSimulator therefore runs it on per-worker
     * scratch units and folds the stat deltas into the owning cluster's
     * shard afterwards. Touches no memory-system state.
     */
    Cycle processQuadWork(const QuadFragment &quad, const TextureMap &tex,
                          FilterMode mode, Color4f out_color[4]);

    /**
     * Distinct cache lines the last processQuadWork() touched, in
     * first-touch order (the order processQuad() issues them in).
     */
    std::span<const Addr> quadLines() const { return lines_.order(); }

    /**
     * Charge a quad's exposed texel-fetch stall to filter_busy and
     * mem_stall, as processQuad() does once the quad's lines are read.
     */
    void
    accountStall(Cycle stall)
    {
        stats_.mem_stall += stall;
        stats_.filter_busy += stall;
    }

    const TexUnitStats &stats() const { return stats_; }

    /** Zero the per-frame counters. */
    void resetStats() { stats_ = TexUnitStats{}; }

    /**
     * Serve another configuration and memory system, keeping the
     * scratch buffers: a host thread's scratch unit moving to another
     * frame's tile stream. Same state as a freshly constructed unit for
     * everything processQuadWork() reads; the counters restart.
     */
    void rebind(const GpuConfig &config, MemorySystem &mem);

    /**
     * Install the frame's noise seed (a pure function of the camera,
     * hashed by the pipeline) for the stochastic filter policies. Pure
     * state: safe to call from any execution mode before rendering.
     */
    void beginFrame(std::uint32_t frame_seed) { frame_seed_ = frame_seed; }

  private:
    /** Per-pixel outcome inside a quad. */
    struct PixelPlan
    {
        bool active = false;
        bool approximate = false;
        DecisionStage stage = DecisionStage::FullAf;
        int fetch_samples = 0; ///< Trilinear samples actually fetched.
        int addr_samples = 0;  ///< Samples whose addresses were computed.
        /**
         * Texels blended by the filtering ALUs for this pixel — the unit
         * of filter timing (8 per full trilinear sample, 1 per STF
         * texel). The 8 filter ALUs retire 8 texels per
         * cycles_per_trilinear.
         */
        int filter_texels = 0;
        /**
         * Fig. 12 shared-sample count of the pixel's footprints when
         * the distribution check already measured it; -1 if not.
         */
        int shared_samples = -1;
        Color4f color;
    };

    /**
     * Deduplicating collector of the cache lines one quad touches.
     *
     * Lines are recorded in first-touch order (the order the seed issued
     * them in) and fetched with a single batched memory-system call per
     * quad, so each distinct line pays exactly one tag lookup. Worst case
     * is bounded: 4 pixels x 16 AF samples x 8 texels = 512 lines, so the
     * half-loaded 1024-slot open-addressed table never fills.
     */
    class QuadLineSet
    {
      public:
        QuadLineSet();

        /** Forget all lines (start of a quad). */
        void reset();

        /**
         * Record line @p line_addr if not yet seen. Inline: every line
         * queueSample() cannot skip lands here.
         */
        void
        insertLine(Addr line_addr)
        {
            std::uint64_t z = line_addr * 0x9E3779B97F4A7C15ull;
            std::uint32_t slot =
                static_cast<std::uint32_t>(z >> 32) & (kSlots - 1);
            for (std::uint32_t probes = 0; probes < kSlots;
                 ++probes, slot = (slot + 1) & (kSlots - 1)) {
                if (slot_gen_[slot] != gen_) {
                    slot_gen_[slot] = gen_;
                    slot_addr_[slot] = line_addr;
                    order_.push_back(line_addr);
                    return;
                }
                if (slot_addr_[slot] == line_addr)
                    return;
            }
            PARGPU_INVARIANT(false, "quad line set overflow: a quad "
                                    "touches at most 512 lines");
        }

        const std::vector<Addr> &order() const { return order_; }

      private:
        static constexpr std::uint32_t kSlots = 1024;

        Addr slot_addr_[kSlots];
        std::uint32_t slot_gen_[kSlots];
        std::uint32_t gen_ = 0;   ///< Current quad's generation stamp.
        std::vector<Addr> order_; ///< Distinct lines, first-touch order.
    };

    /**
     * Record a sample's lines into the quad batch (no memory access).
     * Inline: this is the hottest per-sample call in the frame (one per
     * trilinear sample), and the loop is eight mask-compare-maybe-insert
     * steps against the cached line mask.
     *
     * Texels within a sample frequently share cache lines (tiled
     * layout), and samples across the quad share whole footprints; the
     * fetch unit coalesces all of it, so record each distinct line once
     * for the quad-level batched read. Two hints, per level half (slots
     * 0-3 = finer level, 4-7 = coarser), skip probes of lines already
     * recorded: a half whose four addresses repeat the previous sample's
     * is skipped whole, and a line equal to the last one queued is not
     * probed again. Either way only duplicates are skipped, so the
     * first-touch order is unchanged.
     */
    void
    queueSample(const TexelAddrSet &addrs)
    {
        for (int h = 0; h < 2; ++h) {
            const Addr *a = addrs.data() + 4 * h;
            Addr *fp = prev_fp_[h];
            if (a[0] == fp[0] && a[1] == fp[1] && a[2] == fp[2] &&
                a[3] == fp[3])
                continue;
            Addr &prev = prev_line_[h];
            for (int k = 0; k < 4; ++k) {
                fp[k] = a[k];
                Addr la = a[k] & line_mask_;
                if (la != prev) {
                    lines_.insertLine(la);
                    prev = la;
                }
            }
        }
        stats_.texels += 8;
        ++stats_.trilinear_samples;
    }

    /**
     * Single-texel variant of queueSample() for the stochastic
     * policies: one address, one texel, no trilinear op. STF draws
     * within a pixel walk the footprint's AF line, so the same
     * last-line hint applies (slot 0: STF fetches all land on the
     * decision LOD's level pair).
     */
    void
    queueTexel(Addr addr)
    {
        Addr la = addr & line_mask_;
        Addr &prev = prev_line_[0];
        if (la != prev) {
            lines_.insertLine(la);
            prev = la;
        }
        stats_.texels += 1;
        ++stats_.stf_samples;
    }

    /**
     * Anisotropic-path filter-mode bodies, dispatched by
     * processQuadWork() on config_.patu.scenario after the shared
     * coverage prolog; each fills the covered pixels' plans and queues
     * the lines it fetches. anisoQuadPatu() is the paper's decision flow
     * (Fig. 13) verbatim; the others are documented in docs/FILTERING.md.
     */
    void anisoQuadPatu(const QuadFragment &quad,
                       const TextureSampler &sampler,
                       const AnisotropyInfo &info, PixelPlan plans[4],
                       std::span<TexelAddrSet> footprints[4],
                       const int act[4], int n_act, bool &any_approx,
                       bool &any_keep);
    void anisoQuadStf(const QuadFragment &quad,
                      const TextureSampler &sampler,
                      const AnisotropyInfo &info, PixelPlan plans[4],
                      const int act[4], int n_act, StfVariant variant);
    /** Hoist the line mask and check the config (construction, rebind). */
    void checkBinding();

    /**
     * One QuadFilter batch of @p n trilinear samples through the quad's
     * memo: filterSamplesAddrs(), or only its address half when
     * config_.colors is off (@p colors is then left untouched).
     */
    void
    filterBatch(const TextureSampler &sampler, const Vec2 *uvs, int n,
                const LodSelect &sel, TexelAddrSet *addrs, Color4f *colors)
    {
        if (config_.colors)
            qfilter_.filterSamplesAddrs(sampler, uvs, n, sel, memo_, addrs,
                                        colors);
        else
            qfilter_.sampleAddrs(sampler, uvs, n, sel, memo_, addrs);
    }

    void anisoQuadFas(const QuadFragment &quad,
                      const TextureSampler &sampler,
                      const AnisotropyInfo &info, PixelPlan plans[4],
                      const int act[4], int n_act);

    GpuConfig config_;
    unsigned cluster_;
    MemorySystem *mem_;
    PatuUnit patu_;
    TexUnitStats stats_;
    FootprintMemo memo_;   ///< Per-quad footprint cache.
    QuadLineSet lines_;    ///< Per-quad batched line requests.
    /**
     * Last line queued per level half (slot 0-3 / 4-7) of the current
     * quad — a probe-skipping hint for queueSample(); reset per quad.
     */
    Addr prev_line_[2] = {~static_cast<Addr>(0), ~static_cast<Addr>(0)};
    /**
     * Addresses of the last footprint queued per level half of the
     * current quad — the whole-half skipping hint of queueSample();
     * reset per quad (kInvalidAddr never matches a texel).
     */
    Addr prev_fp_[2][4] = {};
    /** Cache-line mask (~(line_bytes - 1)), hoisted from the config. */
    Addr line_mask_ = 0;
    BumpArena arena_;      ///< Per-quad AF footprint storage.
    /**
     * Reusable batch scratch for the anisotropic paths. Color4f/Vec2
     * carry default member initializers, so declaring these as locals
     * value-initializes ~1.5 KB per quad — hot enough to show in
     * profiles. Contents are dead between calls; single-threaded like
     * the rest of the unit.
     */
    Color4f scratch_cols_[simd::kMaxLanes];
    Vec2 scratch_uvs_[simd::kMaxLanes];
    simd::QuadFilter qfilter_; ///< Batched texel filter (src/simd/).
    std::uint32_t frame_seed_ = 0; ///< Camera-derived STF noise seed.
};

} // namespace pargpu

#endif // PARGPU_SIM_TEXUNIT_HH
