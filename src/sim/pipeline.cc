#include "sim/pipeline.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <span>

#include "common/contract.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/threadpool.hh"
#include "common/tracing.hh"
#include "sim/framebuffer.hh"
#include "sim/raster.hh"

namespace pargpu
{

namespace
{

/** Fixed directional light used for flat face shading. */
const Vec3 kLightDir = Vec3{0.4f, 0.8f, 0.45f}.normalized();

using detail::ClusterReplay;
using detail::MissQuad;
using detail::QuadLog;
using detail::TileLog;
using detail::TileSlot;

/**
 * Log capacity the constructor reserves in its tile slot: eight layers
 * of a 16x16 tile's 64 quads, 32 distinct lines per quad. Deeper tiles
 * still grow the logs.
 */
constexpr std::size_t kReservedTileQuads = 512;
constexpr std::size_t kReservedQuadLines = 32;

/**
 * The calling thread's scratch texture unit, bound to frame @p frame_id
 * (its config, memory system and noise seed). A unit serves one stream
 * participant at a time, and a thread is one participant at a time, so
 * the unit lives with its host thread: created the first time the
 * thread logs a tile, rebound when it moves to another frame. Per-quad
 * texture work is a pure function of the quad and the frame, so no
 * result depends on which unit did it. Kept per simulator instead,
 * every frame's helpers allocated units in their own heaps between the
 * large blocks of the frames their threads own, and some HL2 1280x1024
 * runs peaked an image (20 MiB) higher.
 */
TextureUnit &
scratchUnit(std::uint64_t frame_id, const GpuConfig &config,
            MemorySystem &mem, std::uint32_t frame_seed)
{
    thread_local std::unique_ptr<TextureUnit> unit;
    thread_local std::uint64_t bound = 0;
    if (bound != frame_id) {
        if (unit)
            unit->rebind(config, mem);
        else
            unit = std::make_unique<TextureUnit>(config, 0, mem);
        unit->beginFrame(frame_seed);
        bound = frame_id;
    }
    return *unit;
}

/** Per-face lighting factor from the world-space normal. */
float
faceShade(const Vec3 &p0, const Vec3 &p1, const Vec3 &p2)
{
    Vec3 n = (p1 - p0).cross(p2 - p0).normalized();
    float d = std::fabs(n.dot(kLightDir));
    // Edges near float's range overflow the cross product, and the
    // normal comes out NaN: light the face as if edge-on, not NaN.
    return 0.35f + 0.65f * (std::isnan(d) ? 0.0f : d);
}

/**
 * Shade one surviving pixel from its filtered texture color; the caller
 * stages the quad's colors and scatters them in one masked kernel store.
 */
Color4f
shadeFragment(const SetupTriangle &st, const Color4f &texc)
{
    Color4f c = texc * st.shade;
    if (st.specular) {
        // Glint: steep nonlinear response to the filtered luma
        // (ripple/gloss highlights). The threshold sits above the
        // texture mean, so only sharply-filtered peaks fire — mip
        // blur pushes the luma below it and the effect disappears
        // (Fig. 8's lost water rippling).
        float l = texc.luma();
        float g = std::clamp((l - 0.70f) / 0.08f, 0.0f, 1.0f);
        g = g * g * (3.0f - 2.0f * g);
        c += Color4f{0.95f, 0.95f, 0.85f, 0} * (0.9f * g);
    }
    c.a = 1.0f;
    return c.clamped();
}

/**
 * Shade the surviving pixels @p surv of quad @p q and scatter them into
 * @p fb in one masked kernel store; returns the pixel count.
 */
std::uint64_t
shadeQuad(Framebuffer &fb, const SetupTriangle &st, const QuadFragment &q,
          unsigned surv, const Color4f texc[4])
{
    float rgba[16];
    std::uint64_t pixels = 0;
    for (int i = 0; i < 4; ++i) {
        if (!(surv & (1u << i)))
            continue;
        const Color4f c = shadeFragment(st, texc[i]);
        rgba[4 * i + 0] = c.r;
        rgba[4 * i + 1] = c.g;
        rgba[4 * i + 2] = c.b;
        rgba[4 * i + 3] = c.a;
        ++pixels;
    }
    fb.scatterQuad(q.x, q.y, rgba, surv);
    return pixels;
}

} // namespace

GpuSimulator::GpuSimulator(const GpuConfig &config)
    : config_(config)
{
    MemSysConfig mc = config_.mem;
    mc.clusters = config_.clusters;
    mem_ = std::make_unique<MemorySystem>(mc);
    cluster_tex_.resize(config_.clusters);
    // What the owner of a draw's tile stream needs; streams add slots
    // when every slot is in flight. The slot's logs are reserved here:
    // grown inside the first frame, they land between that frame's large
    // scratch blocks in the thread's heap, and the peak RSS of
    // frame-parallel runs then varies from run to run.
    for (unsigned c = 0; c < config_.clusters; ++c)
        replays_.push_back(std::make_unique<ClusterReplay>(*mem_, c));
    TileSlot &slot = *slots_.emplace_back(std::make_unique<TileSlot>());
    slot.quads.reserve(kReservedTileQuads);
    slot.lines.reserve(kReservedTileQuads * kReservedQuadLines);
    slot.miss_quads.reserve(kReservedTileQuads);
}

FrameOutput
GpuSimulator::renderFrame(const Scene &scene, const Camera &camera,
                          int width, int height)
{
    if (width <= 0 || height <= 0)
        fatal("renderFrame: viewport must be positive");

    PARGPU_TRACE_SCOPE("sim", "frame");
    {
        PhaseGuard serial(mem_->serial_phase);
        mem_->reset();
    }
    // Per-frame noise seed for the stochastic filter policies: a pure
    // function of the camera (the per-frame input that actually changes),
    // hashed through the counter-based discipline. Frame-parallel
    // partitions and any thread count therefore derive the same seed for
    // the same frame, keeping STF output bit-identical across execution
    // modes — a per-simulator frame counter would not survive frame
    // partitioning.
    std::uint32_t frame_seed = 0x9E3779B9u;
    const auto mix_mat = [&frame_seed](const Mat4 &m) {
        for (const auto &row : m.m)
            for (float v : row)
                frame_seed = hashCombine(
                    std::bit_cast<std::uint32_t>(v), frame_seed,
                    0x85EBCA6Bu);
    };
    mix_mat(camera.view);
    mix_mat(camera.proj);

    for (TexUnitStats &ts : cluster_tex_)
        ts = TexUnitStats{};

    // Cache and DRAM hit/miss counters are cumulative across flushes
    // (their units keep lifetime stats); snapshot them here so the frame
    // reports deltas and every frame is measured independently — which
    // also makes renderFrame() results invariant to what the simulator
    // rendered before (the parallel harness relies on this).
    struct MemCounters
    {
        std::uint64_t l1_hits = 0, l1_misses = 0;
        std::uint64_t llc_hits = 0, llc_misses = 0;
        std::uint64_t dram_reads = 0, dram_row_hits = 0;
    } base;
    for (unsigned c = 0; c < config_.clusters; ++c) {
        base.l1_hits += mem_->textureL1(c).hits();
        base.l1_misses += mem_->textureL1(c).misses();
    }
    base.llc_hits = mem_->llc().hits();
    base.llc_misses = mem_->llc().misses();
    base.dram_reads = mem_->dram().reads();
    base.dram_row_hits = mem_->dram().rowHits();

    // All per-frame scratch that exists in every execution mode comes
    // from the two arenas; the lifetime delta around the frame is the
    // arena.frame_bytes counter, robust to bin_arena_ being reset once
    // per draw.
    const std::size_t arena_base =
        frame_arena_.lifetimeBytes() + bin_arena_.lifetimeBytes();
    // Host threads that may run this frame's tile streams: the thread
    // rendering it and idle pool threads that join (a one-thread pool
    // has no helpers).
    const unsigned n_threads = ThreadPool::defaultThreads();

    FrameStats fs;

    frame_arena_.reset();
    // High-water marks restart per frame: the exported arena.high_water
    // must describe this frame alone, whichever simulator instance (and
    // prior frame history) renders it.
    bin_arena_.reset();
    frame_arena_.resetHighWater();
    bin_arena_.resetHighWater();

    // The frame renders straight into the returned image: building it
    // with the clear color is the color half of the clear, so only the
    // depth plane is left to clear, and no end-of-frame copy is needed.
    FrameOutput out;
    out.image = Image(width, height, scene.clear_color);
    Framebuffer fb(out.image, frame_arena_);
    if (n_threads > 1) {
        // Row bands across the pool (inline on a worker): the planes are
        // too large to clear from one thread without it showing in the
        // latency of a lone frame.
        const int bands = static_cast<int>(std::min<unsigned>(
            static_cast<unsigned>(height), n_threads * 4));
        const int rows = (height + bands - 1) / bands;
        ThreadPool::run(
            static_cast<std::size_t>((height + rows - 1) / rows), 1,
            [&](std::size_t b) {
                const int y0 = static_cast<int>(b) * rows;
                fb.clearDepth(y0, std::min(height, y0 + rows));
            },
            n_threads);
    } else {
        fb.clearDepth(0, height);
    }
    // A clear is one color and one depth fill, however it is split.
    fs.fb_simd_fills += 2;

    const unsigned tile = config_.tile_size;
    const int tiles_x = (width + tile - 1) / tile;
    const int tiles_y = (height + tile - 1) / tile;
    const std::size_t n_tiles = static_cast<std::size_t>(tiles_x) * tiles_y;
    const unsigned shader_parallelism =
        config_.clusters * config_.shaders_per_cluster;

    const std::span<Cycle> cluster_cycles =
        frame_arena_.allocSpan<Cycle>(config_.clusters);
    const std::span<std::uint64_t> tiles_per_cluster =
        frame_arena_.allocSpan<std::uint64_t>(config_.clusters);
    Cycle geometry_cycles = 0;

    // Early depth test over a quad's covered pixels; returns the
    // surviving coverage mask. Fully covered quads take the 4-lane
    // depth_quad kernel (one compare-and-select per quad, counted in
    // fb.simd_fills); partial quads keep the per-pixel path. Both paths
    // test the same pixels against the same values, so tested/killed and
    // the surviving mask are identical either way.
    auto depthTestQuad = [&fb](QuadFragment &q, TileLog &tl) -> unsigned {
        if (q.coverage == 0xFu) {
            // Full coverage implies all four pixels are inside the walk
            // window (and thus the viewport), so this tile owns the
            // whole quad and the kernel's fail-lane rewrites are safe.
            unsigned surv = fb.depthTestQuad(q.x, q.y, q.depth);
            ++tl.fb_fills;
            tl.earlyz_tested += 4;
            tl.earlyz_killed +=
                4u - static_cast<unsigned>(std::popcount(surv));
            return surv;
        }
        unsigned surv = 0;
        for (int i = 0; i < 4; ++i) {
            if (!(q.coverage & (1u << i)))
                continue;
            int px = q.x + (i & 1);
            int py = q.y + (i >> 1);
            ++tl.earlyz_tested;
            if (fb.depthTest(px, py, q.depth[i]))
                surv |= 1u << i;
            else
                ++tl.earlyz_killed;
        }
        return surv;
    };

    // Texel-fetch latency beyond the TU's in-flight window stalls it.
    auto stallCycles = [this](Cycle raw_latency) -> Cycle {
        return raw_latency > config_.mem_overlap_credit
            ? raw_latency - config_.mem_overlap_credit : 0;
    };

    // A quad's cost on its cluster: shader and texture work overlap
    // partially, so it pays the longer of the two plus the unhidden part
    // of the shorter.
    auto quadCycles = [this](Cycle tex_busy) -> Cycle {
        const Cycle shader_c = config_.frag_quad_cycles;
        const Cycle lo = std::min(shader_c, tex_busy);
        const Cycle hi = std::max(shader_c, tex_busy);
        return hi + static_cast<Cycle>((1.0 - config_.tex_overlap) *
                                       static_cast<double>(lo));
    };

    // Names this frame to the threads' scratch units (scratchUnit()).
    static std::atomic<std::uint64_t> frames_begun{0};
    const std::uint64_t frame_id = ++frames_begun;

    // Fragment-phase state is persistent across frames, so the vectors
    // keep a steady-state capacity.
    if (tile_slots_.size() < n_tiles)
        tile_slots_ = std::vector<std::atomic<TileSlot *>>(n_tiles);

    // Scratch bins: triangle indices per tile in CSR form (counts, start
    // offsets, one flat item array), rebuilt per draw call so draw order
    // (and therefore depth-test order) is preserved. Arena-backed: one
    // vector-of-vectors here used to cost a heap allocation per touched
    // tile per draw.
    std::span<std::uint32_t> bin_count;
    std::span<std::uint32_t> bin_start;
    std::span<std::uint32_t> bin_items;

    Addr vertex_addr = AddressMap::kVertexBase;

    std::uint32_t draw_index = 0;
    for (const DrawCall &draw : scene.draws) {
        PARGPU_TRACE_SCOPE_F("sim", "draw", draw_index);
        ++draw_index;
        const Mesh &mesh = draw.mesh;
        const TextureMap &tex = *scene.textures[mesh.texture_id];
        const Mat4 mvp = camera.proj * camera.view * draw.model;
        std::span<const SetupTriangle> tris;

        {
        PARGPU_TRACE_SCOPE("sim", "geometry");
        // The geometry engine is the only agent in the memory system
        // during this block (fragment work has not started).
        PhaseGuard serial(mem_->serial_phase);

        // --- Vertex processing ------------------------------------------
        // Fetch vertex data (geometry traffic) and charge shader time.
        Bytes vbytes = mesh.vertices.size() * kVertexBytes;
        const Bytes line = mem_->config().line_bytes;
        for (Bytes off = 0; off < vbytes; off += line) {
            mem_->read(0, vertex_addr + off, geometry_cycles,
                       TrafficClass::Geometry);
        }
        vertex_addr += (vbytes + line - 1) / line * line;
        geometry_cycles += mesh.vertices.size() * config_.vertex_cycles /
            std::max(1u, shader_parallelism) + 1;

        // --- Primitive assembly / clip / cull ----------------------------
        // Setup triangles land in bin_arena_ scratch (near clipping can
        // split a triangle in two, so capacity is 2x the input count);
        // the arena is reset here and the bins below are carved from the
        // same arena afterwards, so both live until the next draw.
        bin_arena_.reset();
        const std::size_t max_setup = (mesh.indices.size() / 3) * 2;
        const std::span<SetupTriangle> tri_scratch =
            bin_arena_.allocSpanUninit<SetupTriangle>(max_setup);
        std::size_t n_tris = 0;
        for (std::size_t t = 0; t + 2 < mesh.indices.size(); t += 3) {
            Vertex tv[3];
            Vec3 wp[3];
            for (int k = 0; k < 3; ++k) {
                tv[k] = mesh.vertices[mesh.indices[t + k]];
                Vec4 w = draw.model * Vec4{tv[k].pos, 1.0f};
                wp[k] = w.xyz();
            }
            ++fs.triangles_in;
            float shade = faceShade(wp[0], wp[1], wp[2]);
            n_tris += static_cast<std::size_t>(setupTriangles(
                tv, mvp, shade, mesh.texture_id, draw.filter,
                draw.backface_cull, width, height,
                tri_scratch.data() + n_tris, draw.specular));
        }
        tris = tri_scratch.first(n_tris);
        fs.triangles_setup += tris.size();
        geometry_cycles += (mesh.indices.size() / 3) *
            config_.tri_setup_cycles / std::max(1u, config_.clusters) + 1;

        // --- Tiling engine ------------------------------------------------
        // Two passes over the triangle/tile overlaps: count, then fill at
        // prefix-summed offsets. Items land grouped by tile, triangles in
        // submission order within each tile — the same traversal order
        // the per-tile vectors produced.
        bin_count = bin_arena_.allocSpan<std::uint32_t>(n_tiles);
        for (const SetupTriangle &st : tris) {
            int tx0 = st.min_x / static_cast<int>(tile);
            int tx1 = st.max_x / static_cast<int>(tile);
            int ty0 = st.min_y / static_cast<int>(tile);
            int ty1 = st.max_y / static_cast<int>(tile);
            for (int ty = ty0; ty <= ty1; ++ty)
                for (int tx = tx0; tx <= tx1; ++tx)
                    ++bin_count[static_cast<std::size_t>(ty) * tiles_x +
                                tx];
        }
        bin_start = bin_arena_.allocSpanUninit<std::uint32_t>(n_tiles + 1);
        std::uint32_t running = 0;
        for (std::size_t t = 0; t < n_tiles; ++t) {
            bin_start[t] = running;
            running += bin_count[t];
        }
        bin_start[n_tiles] = running;
        bin_items = bin_arena_.allocSpanUninit<std::uint32_t>(running);
        const std::span<std::uint32_t> bin_cursor =
            bin_arena_.allocSpanUninit<std::uint32_t>(n_tiles);
        std::copy(bin_start.begin(), bin_start.end() - 1,
                  bin_cursor.begin());
        for (std::uint32_t ti = 0; ti < tris.size(); ++ti) {
            const SetupTriangle &st = tris[ti];
            int tx0 = st.min_x / static_cast<int>(tile);
            int tx1 = st.max_x / static_cast<int>(tile);
            int ty0 = st.min_y / static_cast<int>(tile);
            int ty1 = st.max_y / static_cast<int>(tile);
            for (int ty = ty0; ty <= ty1; ++ty)
                for (int tx = tx0; tx <= tx1; ++tx)
                    bin_items[bin_cursor[static_cast<std::size_t>(ty) *
                                         tiles_x + tx]++] = ti;
        }
        } // geometry span

        // --- Fragment phase ----------------------------------------------
        // Three per-tile phases (docs/ARCHITECTURE.md, "Threading
        // model") in one stream that every worker count runs. Host
        // workers are not simulated clusters: tile t belongs to cluster
        // t % clusters for every simulated state and stat, whichever
        // worker runs it.
        PARGPU_TRACE_SCOPE("sim", "fragment");

        // Phase 1 (log): raster, early-Z, texture work, shading and
        // scatter. Tiles are pixel-disjoint, and per-quad texture work is
        // a pure function of the quad, so each participant runs it on its
        // thread's scratch unit and logs into the tile's slot what the
        // later phases need: per quad the raster cycles before it, its TU work
        // and its distinct lines in first-touch order; per tile the stat
        // deltas.
        auto logTile = [&](std::size_t t, TileSlot &s) {
            TextureUnit &tu =
                scratchUnit(frame_id, config_, *mem_, frame_seed);
            TileLog &tl = s.log;
            const std::span<const std::uint32_t> bin =
                bin_items.subspan(bin_start[t], bin_count[t]);
            const int ty = static_cast<int>(t) / tiles_x;
            const int tx = static_cast<int>(t) % tiles_x;
            int px0 = tx * static_cast<int>(tile);
            int py0 = ty * static_cast<int>(tile);
            int px1 = std::min(width - 1, px0 + static_cast<int>(tile) - 1);
            int py1 = std::min(height - 1, py0 + static_cast<int>(tile) - 1);

            tl = TileLog{};
            s.quads.clear();
            s.lines.clear();
            tu.resetStats();
            Cycle pending = 0;

            for (std::uint32_t ti : bin) {
                const SetupTriangle &st = tris[ti];
                int wx0 = std::max(px0, st.min_x);
                int wy0 = std::max(py0, st.min_y);
                int wx1 = std::min(px1, st.max_x);
                int wy1 = std::min(py1, st.max_y);
                if (wx0 > wx1 || wy0 > wy1)
                    continue;

                tl.simd_quads += rasterizeTriangle(
                    st, wx0, wy0, wx1, wy1, [&](const QuadFragment &quad) {
                        QuadFragment q = quad;
                        unsigned surv = depthTestQuad(q, tl);
                        pending += config_.raster_quad_cycles;
                        if (surv == 0)
                            return;
                        q.coverage = surv;

                        Color4f texc[4];
                        QuadLog ql;
                        ql.pre_cycles = pending;
                        ql.work = tu.processQuadWork(q, tex, st.filter, texc);
                        const std::span<const Addr> lines = tu.quadLines();
                        ql.line_begin =
                            static_cast<std::uint32_t>(s.lines.size());
                        s.lines.insert(s.lines.end(), lines.begin(),
                                       lines.end());
                        ql.line_end =
                            static_cast<std::uint32_t>(s.lines.size());
                        s.quads.push_back(ql);
                        pending = 0;

                        tl.pixels += shadeQuad(fb, st, q, surv, texc);
                        ++tl.fb_fills;
                    });
            }

            tl.tail_cycles = pending;
            tl.tex = tu.stats();
        };

        // Phase 2 (L1 replay): the tile's lines go through its cluster's
        // own L1, with the misses logged in the slot for the commit; the
        // shared LLC and DRAM are not touched. A quad whose lines all hit
        // completes at a latency no shared state can change, so its stall
        // and cycles resolve right here; only quads with misses go on to
        // the commit.
        auto replayTile = [&](std::size_t t, TileSlot &s) {
            ClusterMemFront &front = replays_[t % config_.clusters]->front;
            const std::span<const Addr> lines(s.lines);
            s.miss_quads.clear();
            s.miss_lines.clear();
            Cycle pending = 0;
            Cycle resolved_stall = 0;
            for (const QuadLog &ql : s.quads) {
                const ClusterMemFront::Batch b = front.stageLines(
                    lines.subspan(ql.line_begin, ql.line_end - ql.line_begin),
                    s.miss_lines);
                pending += ql.pre_cycles;
                if (b.miss_begin != b.miss_end) {
                    s.miss_quads.push_back(
                        {pending, ql.work, b.miss_begin, b.miss_end});
                    pending = 0;
                    continue;
                }
                const Cycle stall =
                    stallCycles(mem_->allHitLatency(b.any_line));
                resolved_stall += stall;
                pending += quadCycles(ql.work + stall);
            }
            s.log.tail_cycles += pending;
            s.log.tex.mem_stall += resolved_stall;
            s.log.tex.filter_busy += resolved_stall;
        };

        // Phase 3 (commit): the quads that missed their L1 go to the
        // shared LLC and DRAM, then the tile flushes its color. The
        // cluster cycle recurrence folds the cycles of the quads phase 2
        // resolved into the next quad's lead-in or the tile's tail, so
        // each quad's issue cycle, stall and the flush cycle are the ones
        // a quad-by-quad walk of the tile would use. Committing tiles in
        // row-major order therefore makes every cache, DRAM and timing
        // counter a function of the frame alone. The tile's stat deltas
        // fold into its cluster's shard (integer sums, so the order does
        // not matter).
        auto commitTile = [&](std::size_t t, const TileSlot &s) {
            // Only the commit drain's holder is in the shared memory
            // system; the other workers log and replay.
            PhaseGuard serial(mem_->serial_phase);
            const unsigned cl = static_cast<unsigned>(t % config_.clusters);
            const TileLog &tl = s.log;
            Cycle &cc = cluster_cycles[cl];
            TexUnitStats &ts = cluster_tex_[cl];
            const std::span<const Addr> miss(s.miss_lines);

            for (const MissQuad &mq : s.miss_quads) {
                cc += mq.pre_cycles;
                const Cycle now = cc;
                Cycle fetch_done = mem_->commitBatch(
                    cl,
                    miss.subspan(mq.miss_begin,
                                 mq.miss_end - mq.miss_begin),
                    now, TrafficClass::Texture);
                PARGPU_INVARIANT(fetch_done >= now,
                                 "memory time ran backwards: now=", now,
                                 " done=", fetch_done);
                const Cycle stall = stallCycles(fetch_done - now);
                ts.mem_stall += stall;
                ts.filter_busy += stall;
                cc += quadCycles(mq.work + stall);
            }

            cc += tl.tail_cycles;
            if (tl.pixels > 0) {
                const int px0 =
                    static_cast<int>(t % tiles_x) * static_cast<int>(tile);
                const int py0 =
                    static_cast<int>(t / tiles_x) * static_cast<int>(tile);
                mem_->write(fb.pixelAddr(px0, py0), tl.pixels * 4, cc,
                            TrafficClass::ColorDepth);
            }

            ts += tl.tex;
            fs.earlyz_tested += tl.earlyz_tested;
            fs.earlyz_killed += tl.earlyz_killed;
            fs.raster_simd_quads += tl.simd_quads;
            fs.fb_simd_fills += tl.fb_fills;
            fs.shader_busy_cycles += config_.frag_quad_cycles * s.quads.size();
            ++tiles_per_cluster[cl];
        };

        // The stream. Workers claim the busy tiles in row-major order,
        // one at a time, and log each into a free slot. Then the worker
        // drains the tile's cluster (replays its logged tiles in
        // row-major order) and the commit (commits the replayed tiles in
        // row-major order, returning their slots). A drain is a try-lock:
        // a worker that finds it held moves on, so no worker waits inside
        // a draw, and the holder re-checks for ready tiles after letting
        // go, so none is stranded. Each L1 thus sees its cluster's lines
        // in row-major order, and the LLC and DRAM the commits in
        // row-major order at the same cycles, for any worker count.
        // The thread rendering the frame owns the stream and idle pool
        // threads join it (ThreadPool::share()). A helper with other work
        // leaves between tiles; the drains' re-check covers what it
        // logged. A tile whose phase 1 throws is never logged: the drains
        // stop at it and the owner rethrows once its helpers have left.
        busy_tiles_.clear();
        for (std::size_t t = 0; t < n_tiles; ++t)
            if (bin_count[t] != 0)
                busy_tiles_.push_back(static_cast<std::uint32_t>(t));
        const std::size_t n_busy = busy_tiles_.size();
        if (n_busy == 0)
            continue;
        const auto nextBusy = [&](std::size_t t) {
            while (t < n_tiles && bin_count[t] == 0)
                t += config_.clusters;
            return t;
        };
        // Every cursor, drain and slot restarts per draw, also after a
        // draw that threw.
        for (unsigned c = 0; c < config_.clusters; ++c) {
            replays_[c]->next.store(nextBusy(c));
            replays_[c]->held.store(false);
        }
        for (std::uint32_t t : busy_tiles_)
            tile_slots_[t].store(nullptr);
        {
            MutexLock lk(slot_mu_);
            free_slots_.clear();
            for (auto it = slots_.rbegin(); it != slots_.rend(); ++it)
                free_slots_.push_back(it->get());
            slots_peak_ = 0;
        }
        std::atomic<std::size_t> next_claim{0};
        std::atomic<std::size_t> next_commit{0};
        std::atomic<bool> committing{false};

        // Runs step() while ready() holds, under the try-lock `held`.
        const auto drain = [](std::atomic<bool> &held, auto ready,
                              auto step) {
            while (ready() && !held.exchange(true)) {
                while (ready())
                    step();
                held.store(false);
            }
        };
        const auto commitReady = [&] {
            const std::size_t i = next_commit.load();
            return i < n_busy &&
                replays_[busy_tiles_[i] % config_.clusters]->next.load() >
                busy_tiles_[i];
        };
        const auto commitNext = [&] {
            const std::size_t i = next_commit.load();
            TileSlot &s = *tile_slots_[busy_tiles_[i]].load();
            commitTile(busy_tiles_[i], s);
            {
                MutexLock lk(slot_mu_);
                free_slots_.push_back(&s);
            }
            next_commit.store(i + 1);
        };
        const auto takeSlot = [this]() -> TileSlot & {
            MutexLock lk(slot_mu_);
            if (free_slots_.empty())
                free_slots_.push_back(
                    slots_.emplace_back(std::make_unique<TileSlot>()).get());
            TileSlot &s = *free_slots_.back();
            free_slots_.pop_back();
            slots_peak_ =
                std::max(slots_peak_, slots_.size() - free_slots_.size());
            return s;
        };
        const auto stream = [&] {
            PARGPU_TRACE_SPAN(span, "sim", "tiles");
            std::size_t logged = 0;
            while (!ThreadPool::helperShouldLeave()) {
                const std::size_t i = next_claim.fetch_add(1);
                if (i >= n_busy)
                    break;
                const std::size_t t = busy_tiles_[i];
                TileSlot &s = takeSlot();
                logTile(t, s);
                ++logged;
                tile_slots_[t].store(&s);
                ClusterReplay &cr = *replays_[t % config_.clusters];
                drain(
                    cr.held,
                    [&] {
                        const std::size_t u = cr.next.load();
                        return u < n_tiles && tile_slots_[u].load() != nullptr;
                    },
                    [&] {
                        const std::size_t u = cr.next.load();
                        replayTile(u, *tile_slots_[u].load());
                        cr.next.store(nextBusy(u + config_.clusters));
                    });
                drain(committing, commitReady, commitNext);
            }
            span.setValue(static_cast<double>(logged));
        };
        ThreadPool::runShared(
            stream,
            static_cast<unsigned>(std::min<std::size_t>(n_threads, n_busy)));
        MutexLock lk(slot_mu_);
        PARGPU_TRACE_COUNTER("sim", "tiles.in_flight", slots_peak_);
    }

    // --- Collect statistics -----------------------------------------------
    fs.geometry_cycles = geometry_cycles;
    fs.fragment_cycles =
        *std::max_element(cluster_cycles.begin(), cluster_cycles.end());
    fs.total_cycles = fs.geometry_cycles + fs.fragment_cycles;
    fs.shader_busy_cycles += geometry_cycles;

    fs.filter_policy =
        static_cast<std::uint64_t>(filterPolicyCode(config_.patu.scenario));
    for (const TexUnitStats &ts : cluster_tex_) {
        fs.texture_filter_cycles += ts.filter_busy;
        fs.texture_mem_stall += ts.mem_stall;
        fs.quads += ts.quads;
        fs.pixels_shaded += ts.pixels;
        fs.trilinear_samples += ts.trilinear_samples;
        fs.texels += ts.texels;
        fs.addr_ops += ts.addr_ops;
        fs.table_accesses += ts.table_accesses;
        fs.tex_lines += ts.lines;
        fs.memo_lookups += ts.memo_lookups;
        fs.memo_hits += ts.memo_hits;
        fs.simd_batches += ts.simd_batches;
        fs.af_candidate_pixels += ts.af_candidate_pixels;
        fs.approx_stage1 += ts.approx_stage1;
        fs.approx_stage2 += ts.approx_stage2;
        fs.full_af += ts.full_af;
        fs.trivial_tf += ts.trivial_tf;
        fs.af_input_samples += ts.af_input_samples;
        fs.shared_samples += ts.shared_samples;
        fs.divergent_quads += ts.divergent_quads;
        fs.af_quads += ts.af_quads;
        fs.stf_samples += ts.stf_samples;
        fs.fas_quads += ts.fas_quads;
    }

    // Per-cluster shards: the static tile assignment is the same for
    // every worker count, so the cluster.* metrics never depend on
    // execution mode.
    fs.clusters.resize(config_.clusters);
    for (unsigned c = 0; c < config_.clusters; ++c) {
        ClusterStats &cs = fs.clusters[c];
        const TexUnitStats &ts = cluster_tex_[c];
        cs.tiles = tiles_per_cluster[c];
        cs.quads = ts.quads;
        cs.pixels = ts.pixels;
        cs.texels = ts.texels;
        cs.cycles = cluster_cycles[c];
        cs.filter_busy = ts.filter_busy;
        cs.mem_stall = ts.mem_stall;
    }

    // Arena accounting: lifetime deltas survive the per-draw bin_arena_
    // resets; the high-water mark is the peak live scratch either arena
    // held during this frame (restarted above, so it is identical for
    // every execution mode and simulator instance).
    // The color plane is per-frame scratch too, only no longer carved
    // from frame_arena_ (it is the returned image); it is live for the
    // whole frame, so it adds to both figures exactly as its arena
    // allocation did.
    const std::uint64_t color_bytes =
        out.image.pixels().size() * sizeof(Color4f);
    fs.arena_frame_bytes =
        frame_arena_.lifetimeBytes() + bin_arena_.lifetimeBytes() -
        arena_base + color_bytes;
    fs.arena_high_water = frame_arena_.highWaterBytes() +
        bin_arena_.highWaterBytes() + color_bytes;

    fs.traffic_texture = mem_->trafficBytes(TrafficClass::Texture);
    fs.traffic_colordepth = mem_->trafficBytes(TrafficClass::ColorDepth);
    fs.traffic_geometry = mem_->trafficBytes(TrafficClass::Geometry);
    for (unsigned c = 0; c < config_.clusters; ++c) {
        fs.l1_hits += mem_->textureL1(c).hits();
        fs.l1_misses += mem_->textureL1(c).misses();
    }
    // Lifetime counters only grow, so all per-frame deltas must come out
    // non-negative; a violation means the snapshot/delta pairing broke
    // (the bug class PR 1 fixed) and the frame's stats are invalid.
    PARGPU_INVARIANT(fs.l1_hits >= base.l1_hits &&
                         fs.l1_misses >= base.l1_misses,
                     "L1 counters regressed within a frame");
    fs.l1_hits -= base.l1_hits;
    fs.l1_misses -= base.l1_misses;
    PARGPU_INVARIANT(mem_->llc().hits() >= base.llc_hits &&
                         mem_->llc().misses() >= base.llc_misses &&
                         mem_->dram().reads() >= base.dram_reads &&
                         mem_->dram().rowHits() >= base.dram_row_hits,
                     "LLC/DRAM counters regressed within a frame");
    fs.llc_hits = mem_->llc().hits() - base.llc_hits;
    fs.llc_misses = mem_->llc().misses() - base.llc_misses;
    fs.dram_reads = mem_->dram().reads() - base.dram_reads;
    fs.dram_row_hits = mem_->dram().rowHits() - base.dram_row_hits;
    PARGPU_INVARIANT(fs.dram_row_hits <= fs.dram_reads,
                     "row hits exceed DRAM reads: ", fs.dram_row_hits,
                     " > ", fs.dram_reads);
    PARGPU_INVARIANT(fs.total_cycles >= fs.fragment_cycles,
                     "total cycles below the fragment phase");

    // Memory-system activity of this frame, as chrome-trace counter
    // tracks (no effect on the simulation; see common/tracing.hh).
    PARGPU_TRACE_COUNTER("mem", "dram.bytes", fs.totalTraffic());
    PARGPU_TRACE_COUNTER("mem", "dram.reads", fs.dram_reads);
    PARGPU_TRACE_COUNTER("mem", "l1.misses", fs.l1_misses);
    PARGPU_TRACE_COUNTER("mem", "llc.misses", fs.llc_misses);
    PARGPU_TRACE_COUNTER("sim", "frame.cycles", fs.total_cycles);

    out.stats = fs;
    return out;
}

} // namespace pargpu
