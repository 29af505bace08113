/**
 * @file
 * The top-level GPU simulator: the paper's Fig. 2 rendering architecture.
 *
 * A frame flows through vertex processing, primitive assembly with
 * near-plane clipping and back-face culling, the tiling engine (16x16
 * tiles scheduled round-robin across shader clusters), rasterization into
 * 2x2 quads, early depth test, and fragment processing with texture
 * filtering through the (PATU-extended) texture units. Timing is
 * cycle-approximate: each cluster owns a cycle counter advanced by the
 * slower of shader and texture work per quad, and the frame time is the
 * geometry front-end plus the slowest cluster.
 */

#ifndef PARGPU_SIM_PIPELINE_HH
#define PARGPU_SIM_PIPELINE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/arena.hh"
#include "common/image.hh"
#include "common/types.hh"
#include "mem/memsys.hh"
#include "sim/config.hh"
#include "sim/geometry.hh"
#include "sim/raster.hh"
#include "sim/texunit.hh"

namespace pargpu
{

/**
 * One cluster's shard of a frame's fragment-phase work. Tile t belongs
 * to cluster `t % clusters` for any worker count, so the per-cluster metrics
 * and the imbalance scalar are comparable across execution modes.
 */
struct ClusterStats
{
    std::uint64_t tiles = 0;  ///< Non-empty tiles processed (per draw).
    std::uint64_t quads = 0;  ///< Quads filtered by this cluster's TU.
    std::uint64_t pixels = 0; ///< Pixels filtered.
    std::uint64_t texels = 0; ///< Texels requested.
    Cycle cycles = 0;         ///< Cluster cycle counter at frame end.
    Cycle filter_busy = 0;    ///< TU busy cycles.
    Cycle mem_stall = 0;      ///< TU exposed texel-fetch stall.
};

/** Aggregated per-frame measurements. */
struct FrameStats
{
    // --- Time ---------------------------------------------------------
    Cycle total_cycles = 0;          ///< Frame render time.
    Cycle geometry_cycles = 0;       ///< Front-end (vertex/setup/binning).
    Cycle fragment_cycles = 0;       ///< Slowest cluster's fragment phase.
    Cycle texture_filter_cycles = 0; ///< Total TU busy time (Fig. 18).
    Cycle texture_mem_stall = 0;     ///< Exposed texel-fetch stall.
    Cycle shader_busy_cycles = 0;    ///< Shader ALU time (energy input).

    // --- Work ----------------------------------------------------------
    std::uint64_t triangles_in = 0;    ///< Submitted triangles.
    std::uint64_t triangles_setup = 0; ///< Survived clip/cull.
    std::uint64_t earlyz_tested = 0;   ///< Covered pixels depth-tested.
    std::uint64_t earlyz_killed = 0;   ///< ... rejected by early-Z.
    std::uint64_t quads = 0;
    std::uint64_t pixels_shaded = 0;
    std::uint64_t trilinear_samples = 0;
    std::uint64_t texels = 0;
    std::uint64_t addr_ops = 0;
    std::uint64_t table_accesses = 0;
    std::uint64_t tex_lines = 0;     ///< Distinct lines fetched per quad,
                                     ///< summed over quads.
    std::uint64_t memo_lookups = 0;  ///< Footprint-memo probes.
    std::uint64_t memo_hits = 0;     ///< ... served from the memo.
    std::uint64_t simd_batches = 0;  ///< Batched SoA filter invocations.
    std::uint64_t raster_simd_quads = 0; ///< Quads through edge_quad.
    std::uint64_t fb_simd_fills = 0; ///< Framebuffer kernel invocations.

    // --- Arena scratch (bytes) -------------------------------------------
    std::uint64_t arena_frame_bytes = 0; ///< Scratch handed out this frame.
    std::uint64_t arena_high_water = 0;  ///< Peak live scratch this frame.

    // --- PATU decisions --------------------------------------------------
    std::uint64_t af_candidate_pixels = 0;
    std::uint64_t approx_stage1 = 0;
    std::uint64_t approx_stage2 = 0;
    std::uint64_t full_af = 0;
    std::uint64_t trivial_tf = 0;
    std::uint64_t af_input_samples = 0;
    std::uint64_t shared_samples = 0;
    std::uint64_t divergent_quads = 0;
    std::uint64_t af_quads = 0;

    // --- Filter-mode activity (docs/FILTERING.md) -----------------------
    std::uint64_t filter_policy = 0; ///< filterPolicyCode() of the mode.
    std::uint64_t stf_samples = 0; ///< Single-texel stochastic fetches.
    std::uint64_t fas_quads = 0;   ///< Quads filtered after shading.

    // --- Memory ----------------------------------------------------------
    Bytes traffic_texture = 0;
    Bytes traffic_colordepth = 0;
    Bytes traffic_geometry = 0;
    std::uint64_t l1_hits = 0, l1_misses = 0;
    std::uint64_t llc_hits = 0, llc_misses = 0;
    std::uint64_t dram_reads = 0, dram_row_hits = 0;

    // --- Per-cluster shards ----------------------------------------------
    std::vector<ClusterStats> clusters; ///< One entry per shader cluster.

    /** Frames per second at @p freq_ghz, from total_cycles. */
    double
    fps(double freq_ghz = 1.0) const
    {
        return total_cycles == 0
            ? 0.0
            : freq_ghz * 1e9 / static_cast<double>(total_cycles);
    }

    /** Total DRAM traffic in bytes. */
    Bytes
    totalTraffic() const
    {
        return traffic_texture + traffic_colordepth + traffic_geometry;
    }
};

/** A rendered frame plus its measurements. */
struct FrameOutput
{
    Image image;
    FrameStats stats;
};

namespace detail
{

/**
 * Phase-1 record of one surviving quad. pre_cycles carries the
 * rasterizer cost accumulated since the previous surviving quad (killed
 * quads included), so phases 2 and 3 can reconstruct the quad's exact
 * issue cycle without revisiting them.
 */
struct QuadLog
{
    Cycle pre_cycles = 0;         ///< Raster cycles up to and incl. self.
    Cycle work = 0;               ///< TU address + filter cycles.
    std::uint32_t line_begin = 0; ///< Distinct lines, first-touch order:
    std::uint32_t line_end = 0;   ///< a range of the slot's line log.
};

/**
 * Phase-2 record of a quad that missed its cluster's L1, left for the
 * commit. pre_cycles is everything the cluster spends between the
 * previous such quad of the tile (or the tile's start) and this quad's
 * issue: raster cycles plus the full cost of the all-hit quads between,
 * which phase 2 resolved.
 */
struct MissQuad
{
    Cycle pre_cycles = 0;
    Cycle work = 0;               ///< TU address + filter cycles.
    std::uint32_t miss_begin = 0; ///< L1 misses: a range of the slot's
    std::uint32_t miss_end = 0;   ///< miss-line log.
};

/**
 * One cluster's L1-replay drain: its L1 front, the next of its tiles
 * to replay (row-major; past the last tile once all are replayed) and
 * the try-lock a worker holds while it drains. Cache-line aligned,
 * because neighbouring clusters drain concurrently on different workers.
 */
struct alignas(64) ClusterReplay
{
    ClusterReplay(MemorySystem &mem, unsigned cluster) : front(mem, cluster)
    {
    }

    ClusterMemFront front;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> held{false};
};

/** One tile's stat deltas and the cycles after its last committed quad. */
struct TileLog
{
    Cycle tail_cycles = 0;         ///< Cycles after the last quad left
                                   ///< for the commit (phase 1: raster;
                                   ///< phase 2 adds resolved quads).
    std::uint64_t pixels = 0;      ///< Pixels written (flush size).
    std::uint64_t earlyz_tested = 0;
    std::uint64_t earlyz_killed = 0;
    std::uint64_t simd_quads = 0;  ///< raster.simd_quads delta.
    std::uint64_t fb_fills = 0;    ///< fb.simd_fills delta.
    TexUnitStats tex;              ///< Texture-unit stat deltas (phase
                                   ///< 2 adds resolved quads' stalls).
};

/**
 * One busy tile on its way from log to commit: its TileLog, phase 1's
 * quad and line logs, and phase 2's quads that missed the L1 with their
 * miss lines. A worker takes a slot from the simulator's free list when
 * it starts logging a tile, and the commit returns it, so the live
 * slots are the tiles between the commit frontier and the newest logged
 * tile. Slots keep their capacity across tiles, draws and frames.
 */
struct TileSlot
{
    TileLog log;
    std::vector<QuadLog> quads;
    std::vector<Addr> lines;
    std::vector<MissQuad> miss_quads;
    std::vector<Addr> miss_lines;
};

} // namespace detail

/**
 * The simulator. Construct once per configuration; renderFrame() may be
 * called repeatedly (caches and DRAM state are reset per frame so every
 * frame is measured independently).
 */
class GpuSimulator
{
  public:
    explicit GpuSimulator(const GpuConfig &config);

    /**
     * Render @p scene from @p camera into a width x height frame. With
     * GpuConfig::colors off the image is the clear-colored plane and the
     * stats are those of a colored frame.
     *
     * Runs the memory system's serial phases itself, so code running
     * inside a frame must never re-enter the simulator.
     */
    FrameOutput renderFrame(const Scene &scene, const Camera &camera,
                            int width, int height);

    const GpuConfig &config() const { return config_; }
    const MemorySystem &mem() const { return *mem_; }

  private:
    GpuConfig config_;
    std::unique_ptr<MemorySystem> mem_;
    /**
     * Per-cluster texture-unit stats of the current frame. The texture
     * work itself runs on the workers' scratch units; each tile's
     * deltas fold into its cluster's shard at the commit.
     */
    std::vector<TexUnitStats> cluster_tex_;
    /**
     * Per-frame scratch: the depth plane and per-cluster accumulators.
     * Reset at the top of renderFrame(), so consecutive frames reuse the
     * same blocks instead of re-allocating multi-MB vectors. (The color
     * plane is the returned Image itself; arena.* still counts it.)
     */
    BumpArena frame_arena_;
    /**
     * Per-draw scratch: the tiling engine's CSR triangle bins and the
     * post-setup triangle array (reset at the top of each draw).
     */
    BumpArena bin_arena_;
    /**
     * Fragment-phase state, persistent across frames so the vectors keep
     * their capacity: one replay drain per cluster, the tile slots with
     * their free list and the draw's peak of live slots, each busy
     * tile's slot once it is logged, and the draw's busy tiles. The
     * constructor builds what the stream's owner needs (one reserved
     * slot); streams add slots only when every slot is in flight. The
     * texture work runs on each host thread's own scratch unit (a thread
     * is not a simulated cluster: it logs whichever tiles it claims).
     * Never arena-backed (the arena.* counters must not depend on the
     * worker count).
     */
    std::vector<std::unique_ptr<detail::ClusterReplay>> replays_;
    std::mutex slot_mu_; ///< Guards slots_, free_slots_, slots_peak_.
    std::vector<std::unique_ptr<detail::TileSlot>> slots_;
    std::vector<detail::TileSlot *> free_slots_;
    std::size_t slots_peak_ = 0;
    std::vector<std::atomic<detail::TileSlot *>> tile_slots_;
    std::vector<std::uint32_t> busy_tiles_;
};

} // namespace pargpu

#endif // PARGPU_SIM_PIPELINE_HH
