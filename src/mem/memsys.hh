/**
 * @file
 * The GPU memory system: per-cluster texture L1 caches, a shared L2 (the
 * LLC) and DRAM, with traffic-class accounting so benches can reproduce the
 * paper's bandwidth breakdowns (Fig. 6) and cache-scaling study (Fig. 21).
 */

#ifndef PARGPU_MEM_MEMSYS_HH
#define PARGPU_MEM_MEMSYS_HH

#include <memory>
#include <span>
#include <vector>

#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"

namespace pargpu
{

/** Who generated a memory access; drives bandwidth breakdowns. */
enum class TrafficClass
{
    Texture,    ///< Texel fetches from the texture units.
    ColorDepth, ///< Framebuffer color/depth traffic.
    Geometry,   ///< Vertex/index fetches.
};

/** Fixed access latencies of the on-chip hierarchy. */
struct MemLatencies
{
    Cycle l1_hit = 4;   ///< Texture L1 hit.
    Cycle l2_hit = 28;  ///< L2 hit (beyond the L1 lookup).
};

/** Memory-system geometry; scale factors support the Fig. 21 sweep. */
struct MemSysConfig
{
    unsigned clusters = 4;          ///< Texture L1 instances.
    Bytes tc_size = 16 * 1024;      ///< Texture L1 capacity (Table I).
    unsigned tc_assoc = 4;
    Bytes llc_size = 128 * 1024;    ///< Shared L2 capacity (Table I).
    unsigned llc_assoc = 8;
    unsigned line_bytes = 64;
    unsigned tc_scale = 1;          ///< Texture-cache capacity multiplier.
    unsigned llc_scale = 1;         ///< LLC capacity multiplier.
    MemLatencies latencies;
    DramConfig dram;
};

/**
 * PhaseCapability, PhaseGuard and MemorySystem::serial_phase do nothing.
 * They stay only because perfbench/src/replay.cc, their one user, scopes
 * a PhaseGuard on serial_phase; they go with that file (ROADMAP item 3).
 */
struct PhaseCapability
{
};

class PhaseGuard
{
  public:
    explicit PhaseGuard(PhaseCapability &) {}
};

/**
 * The full texture/framebuffer memory hierarchy.
 *
 * Timed reads walk L1 (texture class only) then L2 then DRAM; writes are
 * bandwidth-accounted only. All traffic is tallied per TrafficClass so the
 * analysis layer can split DRAM bandwidth the way Fig. 6 does.
 *
 * Serial phase: shared LLC/DRAM state moves only where one thread at a
 * time can run, before any fragment worker starts (the per-frame reset,
 * each draw's geometry) and under the fragment phase's commit drain,
 * which one worker holds at a time while others keep logging and
 * replaying tiles. read(), readLines(), write(), commitBatch() and
 * reset() may be called only there; ClusterMemFront::stageLines (phase
 * 2, under its cluster's replay drain) touches only its cluster's L1.
 * Nothing enforces this at compile time: ThreadSanitizer runs of the
 * tile-stream tests (scripts/check.sh stage 4) check it.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemSysConfig &config);

    PhaseCapability serial_phase; ///< Unused by src/; see PhaseGuard.

    /**
     * Timed read of the line containing @p addr.
     *
     * @param cluster  Requesting shader cluster (selects the texture L1).
     * @param addr     Byte address.
     * @param now      Issue cycle.
     * @param cls      Traffic class for accounting.
     * @return Cycle at which the data is available.
     */
    Cycle read(unsigned cluster, Addr addr, Cycle now, TrafficClass cls);

    /**
     * Timed batched read of pre-deduplicated line addresses, all issued
     * at @p now. Each line pays exactly one tag lookup per cache level it
     * reaches; the caller guarantees the addresses are distinct (the
     * texture unit's per-quad coalescing). Walks the hierarchy in order,
     * so it is equivalent to read() per line with the max completion
     * returned.
     *
     * @return The furthest completion cycle (@p now when @p lines is
     *         empty).
     */
    Cycle readLines(unsigned cluster, std::span<const Addr> lines,
                    Cycle now, TrafficClass cls);

    /** Bandwidth-only write (framebuffer flush, etc.). */
    void write(Addr addr, Bytes bytes, Cycle now, TrafficClass cls);

    /**
     * Fragment-phase commit: replay the L1-miss lines one quad staged
     * through a ClusterMemFront against the shared LLC and DRAM, in the
     * caller-chosen (canonical) order.
     *
     * @p miss_lines is the quad's slice of the tile's miss log — the
     * lines that missed the cluster's L1 during the phase-2 replay; it
     * must not be empty (a quad without misses completes after
     * allHitLatency(), which needs no shared state). Given that the L1
     * lookups already happened (in the per-cluster access order a
     * quad-by-quad walk produces), the return value equals what
     * readLines() would have returned for the quad's full line list at
     * @p now.
     */
    Cycle commitBatch(unsigned cluster, std::span<const Addr> miss_lines,
                      Cycle now, TrafficClass cls);

    /**
     * Completion latency of a quad none of whose lines missed the L1:
     * the L1 hit latency, or 0 when it issued no line at all. What
     * readLines() returns minus @p now for such a quad.
     */
    Cycle
    allHitLatency(bool any_line) const
    {
        return any_line ? config_.latencies.l1_hit : 0;
    }

    /** Reset caches, DRAM state and traffic tallies for a fresh run. */
    void reset();

    /** DRAM bytes moved (read + write) for @p cls. */
    Bytes trafficBytes(TrafficClass cls) const;

    const SetAssocCache &textureL1(unsigned cluster) const
    { return *tex_l1_[cluster]; }
    const SetAssocCache &llc() const { return *llc_; }
    const DramModel &dram() const { return *dram_; }
    const MemSysConfig &config() const { return config_; }

  private:
    friend class ClusterMemFront;

    MemSysConfig config_;
    std::vector<std::unique_ptr<SetAssocCache>> tex_l1_;
    std::unique_ptr<SetAssocCache> llc_;
    std::unique_ptr<DramModel> dram_;
    Bytes traffic_[3] = {0, 0, 0};
};

/**
 * One cluster's private view of the memory system during the fragment
 * phase.
 *
 * The texture L1 is per-cluster already, so a front may probe it from
 * whichever worker holds the cluster's replay drain without further
 * synchronization — provided it is fed the line sequence the cluster
 * would issue quad by quad. Phase 2 guarantees that: it replays the
 * lines phase 1 logged for the cluster's tiles (`tile % clusters`) in
 * row-major order. Lines that miss are appended to the caller's miss
 * log instead of touching the shared LLC/DRAM; the commit drain replays
 * the logs in canonical tile order through MemorySystem::commitBatch(),
 * which reproduces the exact LLC and DRAM state, counters and
 * completion cycles of a quad-by-quad walk.
 */
class ClusterMemFront
{
  public:
    ClusterMemFront(MemorySystem &mem, unsigned cluster);

    /** One staged quad: a slice of the miss log. */
    struct Batch
    {
        std::uint32_t miss_begin = 0; ///< First miss-log index.
        std::uint32_t miss_end = 0;   ///< One past the last index.
        bool any_line = false;        ///< Quad issued at least one line.
    };

    /**
     * Phase 2: probe the cluster's L1 for each distinct line of a quad
     * (updating the L1 exactly as a timed read would) and append the
     * misses to @p miss_log for the commit. Only the holder of the
     * cluster's replay drain may call it.
     */
    Batch stageLines(std::span<const Addr> lines,
                     std::vector<Addr> &miss_log);

    unsigned cluster() const { return cluster_; }

  private:
    MemorySystem *mem_;
    unsigned cluster_;
};

} // namespace pargpu

#endif // PARGPU_MEM_MEMSYS_HH
