/**
 * @file
 * Hardware-style texture sampling: trilinear and anisotropic filtering
 * with explicit texel footprints. Bilinear filtering is a trilinear
 * sample at LOD 0, where both levels are level 0 and the second has
 * weight zero.
 *
 * This module reproduces the filtering dataflow of Section IV-A of the
 * paper. A trilinear sample touches exactly 8 texels (a 2x2 bilinear
 * footprint at each of two adjacent mip levels); an anisotropic lookup takes
 * N trilinear samples spaced along the major axis of the projected pixel
 * footprint (Eq. 3), where N is the ratio of the major to the minor axis,
 * clamped to the texture unit's maximum anisotropy (16 in the baseline).
 *
 * Every sample carries the texel addresses the hardware would fetch, so the
 * cache model and PATU's texel-address hash table see the exact stream a
 * real texture unit would generate.
 *
 * The texture unit filters through simd::QuadFilter (simd/filter.hh);
 * TextureSampler's trilinearInto() and filterAnisotropicInto() are the
 * independent reference its tests compare against, bit for bit.
 */

#ifndef PARGPU_TEXTURE_SAMPLER_HH
#define PARGPU_TEXTURE_SAMPLER_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/color.hh"
#include "common/types.hh"
#include "common/vec.hh"
#include "texture/texture.hh"

namespace pargpu
{

/** User-selected filtering method for a draw call. */
enum class FilterMode
{
    Bilinear,    ///< Single-level 2x2 filter.
    Trilinear,   ///< Two-level 2x2 filter (TF in the paper).
    Anisotropic, ///< N trilinear samples along the major axis (AF).
};

/** One texel the hardware fetches: location, blend weight and address. */
struct TexelRef
{
    int level = 0;      ///< Mip level.
    int x = 0;          ///< Texel column (pre-wrap).
    int y = 0;          ///< Texel row (pre-wrap).
    float weight = 0.0f;///< Contribution to the filtered color.
    Addr addr = 0;      ///< Simulated memory address (post-wrap).
};

/** A trilinear sample: 8 texels across two adjacent mip levels. */
struct TrilinearSample
{
    Vec2 uv;            ///< Normalized sample center.
    int level0 = 0;     ///< Finer level.
    int level1 = 0;     ///< Coarser level (== level0 when clamped).
    float frac = 0.0f;  ///< Blend toward level1.
    std::array<TexelRef, 8> texels; ///< [0..3] level0, [4..7] level1.
    Color4f color;      ///< Filtered result of this sample.
};

/**
 * Anisotropy parameters derived from screen-space texture-coordinate
 * derivatives — available right after Texel Generation in the pipeline
 * (Fig. 2), before any texel is fetched.
 */
struct AnisotropyInfo
{
    float pMax = 1.0f;  ///< Major-axis footprint length (texels).
    float pMin = 1.0f;  ///< Minor-axis footprint length (texels).
    /**
     * Anisotropy degree N = clamp(ceil(pMax / pMin), 1, maxAniso) — the
     * paper's sample size, which drives the AF-SSIM(N) prediction.
     */
    int anisoDegree = 1;
    /**
     * Trilinear samples the filtering pipelines actually issue: the
     * anisotropy degree rounded up to a power of two (hardware processes
     * 2/4/8/16-sample groups).
     */
    int sampleSize = 1;
    float lodTF = 0.0f; ///< Isotropic LOD: log2(pMax) (square diagonal).
    float lodAF = 0.0f; ///< Anisotropic LOD: log2(pMin) (minor axis).
    Vec2 majorUv;       ///< Major-axis step in normalized uv space.
};

/**
 * floor(@p t) as a texel coordinate: exact wherever it fits in an int.
 * Anything else (|t| >= 2^31 from a huge uv, or NaN) gives INT_MIN,
 * which is what x86's truncating convert makes of it, so no conversion
 * leaves int's range. The blend fraction is t - std::floor(t), equal to
 * t - texelFloor(t) in range and 0 for a huge t, so the weights stay
 * finite.
 */
inline int
texelFloor(float t)
{
    if (t >= -2147483648.0f && t < 2147483648.0f) // NaN fails both.
        return static_cast<int>(std::floor(t));
    return std::numeric_limits<int>::min();
}

/** Mip levels and blend fraction selected for a LOD value. */
struct LodSelect
{
    int level0 = 0;    ///< Finer level.
    int level1 = 0;    ///< Coarser level (== level0 when clamped).
    float frac = 0.0f; ///< Blend toward level1.
};

/**
 * Per-quad cache of 2x2 bilinear footprints keyed by (level, x0, y0).
 *
 * Successive AF samples of a pixel — and the pixels of a quad — land on
 * overlapping footprints (the same redundancy PATU's Txds table measures,
 * Fig. 12). The memo stores each footprint's four texel colors and
 * simulated addresses so shared footprints are fetched from the texture
 * raster once per quad. Hits return the exact values a fresh fetch would
 * produce, so filtering output is bit-identical; only host work is saved.
 * Divergent footprints (different level or corner) never match: the full
 * key is compared, not just the hash.
 *
 * An entry may hold addresses only: PATU's distribution check needs no
 * colors, so probeAddrs() leaves them unfetched until a later probe() or
 * peekColors() of the same footprint asks for them. Whether an entry is
 * colored never changes which probes hit.
 *
 * Direct-mapped; a colliding footprint simply evicts (correctness never
 * depends on residency). reset() is called per quad and also clears the
 * hit/lookup counters so the texture unit can drain them into its stats.
 */
class FootprintMemo
{
  public:
    static constexpr int kSlots = 128; ///< >= footprints of a 16x AF quad.

    /**
     * One cached footprint: key, the four texel addresses and, once
     * colored, the four texel colors. Cache-line aligned with the key and
     * addresses in the first 64 bytes, so an address-only probe touches
     * one host line and a colored hit exactly one more.
     */
    struct alignas(64) Entry
    {
        std::uint32_t gen = 0; ///< Valid iff equal to the memo's stamp.
        int level = 0;
        int x0 = 0;
        int y0 = 0;
        bool colored = false; ///< color[] holds the footprint's texels.
        Addr addr[4] = {};
        Color4f color[4];
    };

    /** Forget all entries and zero the counters (start of a quad). */
    void
    reset()
    {
        // Bumping the generation stamp invalidates all slots in O(1)
        // instead of walking ~16 KB of entries; on the (rare) wraparound
        // the stamps are cleared for real.
        if (++gen_ == 0) {
            for (Entry &e : slots_)
                e.gen = 0;
            gen_ = 1;
        }
        lookups_ = 0;
        hits_ = 0;
    }

    /**
     * Counted by-reference probe for footprint (@p level, @p x0, @p y0)
     * of @p tex: one lookup, plus one hit if the key is resident. A miss
     * claims the slot (evicting any collision) and fetches the footprint;
     * a hit on an address-only entry fetches its colors. Either way the
     * entry returned is colored, and valid until the next counted probe
     * or reset().
     */
    const Entry &
    probe(const TextureMap &tex, int level, int x0, int y0)
    {
        bool hit = false;
        Entry &e = acquire(level, x0, y0, hit);
        if (!hit) {
            tex.fetchFootprint(level, x0, y0, e.color, e.addr);
            e.colored = true;
        } else if (!e.colored) {
            tex.fetchFootprintColors(level, x0, y0, e.color);
            e.colored = true;
        }
        return e;
    }

    /**
     * probe() for a caller that reads only addresses: the same lookup,
     * hit and eviction, but a miss fetches just the addresses and leaves
     * the entry uncolored.
     */
    const Entry &
    probeAddrs(const TextureMap &tex, int level, int x0, int y0)
    {
        bool hit = false;
        Entry &e = acquire(level, x0, y0, hit);
        if (!hit) {
            tex.fetchFootprintAddrs(level, x0, y0, e.addr);
            e.colored = false;
        }
        return e;
    }

    /**
     * Uncounted color read of a footprint the caller probed earlier this
     * quad: the resident entry's colors (fetched in place if it holds
     * addresses only), or, if the footprint was evicted since, a fresh
     * fetch into @p scratch. Counts nothing and never evicts, so the
     * probe sequence and its hits are those of the earlier probes alone.
     */
    const Color4f *
    peekColors(const TextureMap &tex, int level, int x0, int y0,
               Color4f scratch[4])
    {
        Entry &e = slots_[slotOf(level, x0, y0)];
        if (!matches(e, level, x0, y0)) {
            tex.fetchFootprintColors(level, x0, y0, scratch);
            return scratch;
        }
        if (!e.colored) {
            tex.fetchFootprintColors(level, x0, y0, e.color);
            e.colored = true;
        }
        return e.color;
    }

    /**
     * Copying lookup: counts the probe and, on a hit, the hit, copying
     * the stored colors/addresses into @p color / @p addr. An
     * address-only entry has no colors to copy and counts as a miss.
     */
    bool
    lookup(int level, int x0, int y0, Color4f color[4], Addr addr[4])
    {
        ++lookups_;
        const Entry &e = slots_[slotOf(level, x0, y0)];
        if (!matches(e, level, x0, y0) || !e.colored)
            return false;
        ++hits_;
        for (int i = 0; i < 4; ++i) {
            color[i] = e.color[i];
            addr[i] = e.addr[i];
        }
        return true;
    }

    /** Store a freshly fetched footprint (evicts any slot collision). */
    void
    store(int level, int x0, int y0, const Color4f color[4],
          const Addr addr[4])
    {
        Entry &e = slots_[slotOf(level, x0, y0)];
        e.gen = gen_;
        e.level = level;
        e.x0 = x0;
        e.y0 = y0;
        e.colored = true;
        for (int i = 0; i < 4; ++i) {
            e.color[i] = color[i];
            e.addr[i] = addr[i];
        }
    }

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }

  private:
    static std::size_t
    slotOf(int level, int x0, int y0)
    {
        std::uint32_t h = static_cast<std::uint32_t>(x0) * 0x9E3779B1u ^
            static_cast<std::uint32_t>(y0) * 0x85EBCA77u ^
            static_cast<std::uint32_t>(level) * 0xC2B2AE3Du;
        return h & (kSlots - 1);
    }

    bool
    matches(const Entry &e, int level, int x0, int y0) const
    {
        return e.gen == gen_ && e.level == level && e.x0 == x0 &&
            e.y0 == y0;
    }

    /**
     * The counted half of probe()/probeAddrs(): one hash probe that
     * counts the lookup and sets @p hit (counting it too). On a miss the
     * slot is claimed with the new key for the caller to fill.
     */
    Entry &
    acquire(int level, int x0, int y0, bool &hit)
    {
        ++lookups_;
        Entry &e = slots_[slotOf(level, x0, y0)];
        hit = matches(e, level, x0, y0);
        if (hit) {
            ++hits_;
        } else {
            e.gen = gen_;
            e.level = level;
            e.x0 = x0;
            e.y0 = y0;
        }
        return e;
    }

    Entry slots_[kSlots];
    std::uint32_t gen_ = 1; ///< Current generation stamp (0 = never valid).
    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
};

/**
 * Sampler bound to a single TextureMap. Stateless between lookups; all
 * methods are const.
 */
class TextureSampler
{
  public:
    /** Default maximum anisotropy of the baseline texture unit. */
    static constexpr int kMaxAniso = 16;

    explicit TextureSampler(const TextureMap &tex) : tex_(&tex) {}

    const TextureMap &texture() const { return *tex_; }

    /**
     * Derive anisotropy parameters from normalized-uv screen derivatives.
     *
     * @param duvdx     d(u,v)/dx across one pixel.
     * @param duvdy     d(u,v)/dy across one pixel.
     * @param max_aniso Texture-unit anisotropy cap (>= 1).
     */
    AnisotropyInfo computeAnisotropy(const Vec2 &duvdx, const Vec2 &duvdy,
                                     int max_aniso = kMaxAniso) const;

    /**
     * Select the mip levels and blend fraction for @p lod, clamped to the
     * bound texture's chain. Shared by every trilinear sample at the same
     * LOD, so callers filtering a whole quad compute it once.
     */
    LodSelect selectLod(float lod) const;

    /**
     * One trilinear sample at @p uv with level of detail @p lod.
     * Produces the full 8-texel footprint.
     */
    TrilinearSample trilinear(const Vec2 &uv, float lod) const;

    /**
     * Fill @p out with the trilinear sample at @p uv under a precomputed
     * level selection, fetching footprints through @p memo when provided.
     * Bit-identical to trilinear(uv, lod) for sel == selectLod(lod).
     */
    void trilinearInto(const Vec2 &uv, const LodSelect &sel,
                       TrilinearSample &out, FootprintMemo *memo) const;

    /**
     * Anisotropic filter of a pixel (the paper's AF): @p info.sampleSize
     * trilinear samples spaced along the major axis at lodAF, averaged with
     * equal weights (Eq. 3). Writes the samples into @p out
     * (caller-provided storage of at least that many slots), fetching
     * footprints through @p memo when provided, and returns the averaged
     * color.
     */
    Color4f filterAnisotropicInto(const Vec2 &uv,
                                  const AnisotropyInfo &info,
                                  TrilinearSample *out,
                                  FootprintMemo *memo) const;

  private:
    const TextureMap *tex_;
};

} // namespace pargpu

#endif // PARGPU_TEXTURE_SAMPLER_HH
