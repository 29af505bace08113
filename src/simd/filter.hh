/**
 * @file
 * Batched quad filtering: the texture unit's one texel-filter path.
 *
 * QuadFilter walks the texels of up to kMaxLanes trilinear samples —
 * footprints served by reference from the per-quad FootprintMemo, misses
 * fetched block-at-a-time through TextureMap::fetchFootprint — and
 * accumulates each sample's RGBA in a single 4-wide register (one lane
 * per channel), fused into the gather loop.
 *
 * TextureSampler::trilinearInto() and filterAnisotropicInto() are the
 * independent reference it is tested against: the per-sample FP
 * accumulation chain, the texel addresses and the memo lookup/store
 * sequence (which drives the texunit.memo_* counters) are bit-identical.
 */

#ifndef PARGPU_SIMD_FILTER_HH
#define PARGPU_SIMD_FILTER_HH

#include <cstdint>

#include "common/color.hh"
#include "common/types.hh"
#include "common/vec.hh"
#include "texture/sampler.hh"

namespace pargpu::simd
{

/**
 * Widest batch: a whole quad's anisotropic samples in one gather
 * (4 pixels x 16x max anisotropy).
 */
inline constexpr int kMaxLanes = 64;

/**
 * Per-texture-unit batch filter; allocation-free. Not thread-safe —
 * each texture unit owns one, like its FootprintMemo.
 */
class QuadFilter
{
  public:
    /**
     * The AF sample placement of TextureSampler::filterAnisotropicInto():
     * writes the info.sampleSize sample centers for a pixel at @p uv into
     * @p out and returns the count. Lets a caller concatenate several
     * pixels' samples into one filterSamplesAddrs() batch.
     */
    static int anisoUvs(const Vec2 &uv, const AnisotropyInfo &info,
                        Vec2 *out);

    /**
     * The AF sample average of TextureSampler::filterAnisotropicInto():
     * mean of @p n sample colors in sample order, with the same FP
     * operation sequence.
     */
    static Color4f averageColors(const Color4f *colors, int n);

    // The simulator consumes only each sample's 8 texel addresses (fetch
    // bookkeeping, the PATU hash table) and its filtered color, so every
    // entry point emits those two outputs or one of them, never a
    // TrilinearSample record.

    /**
     * Filter @p n trilinear samples centered at @p uvs[0..n) under the
     * shared level selection @p sel, through @p memo: the texel
     * addresses and color of TextureSampler::trilinearInto() for each,
     * with the same memo lookup/store sequence in sample order. One batch.
     */
    void filterSamplesAddrs(const TextureSampler &sampler, const Vec2 *uvs,
                            int n, const LodSelect &sel,
                            FootprintMemo &memo, TexelAddrSet *addrs,
                            Color4f *colors);

    /**
     * The address half of filterSamplesAddrs(): the same address sets,
     * memo probes (address-only: a missed footprint's colors are not
     * fetched) and batch, no colors. One batch.
     */
    void sampleAddrs(const TextureSampler &sampler, const Vec2 *uvs, int n,
                     const LodSelect &sel, FootprintMemo &memo,
                     TexelAddrSet *addrs);

    // --- Split AF path ------------------------------------------------
    // PATU's distribution check needs only a pixel's AF addresses, and
    // most checked pixels then approximate. AF is split so a pixel pays
    // for AF colors only if it keeps AF: the address half issues all of
    // the memo probes and the batch, the color half re-reads the same
    // footprints through uncounted peeks. Together they yield the
    // addresses, color, probes and hits of filterAnisotropicInto() and
    // one batch.

    /**
     * The address half: writes the info.sampleSize address sets of a
     * pixel at @p uv into @p addrs, probing @p memo address-only (a
     * missed footprint's colors are not fetched). One batch.
     */
    void anisotropicAddrs(const TextureSampler &sampler, const Vec2 &uv,
                          const AnisotropyInfo &info, FootprintMemo &memo,
                          TexelAddrSet *addrs);

    /**
     * The color half: the averaged AF color of the pixel whose addresses
     * anisotropicAddrs() produced earlier this quad, bit for bit
     * filterAnisotropicInto()'s. Counts no probe, hit or batch and evicts
     * nothing (FootprintMemo::peekColors()).
     */
    Color4f anisotropicColor(const TextureSampler &sampler, const Vec2 &uv,
                             const AnisotropyInfo &info,
                             FootprintMemo &memo);

    /** Batched filter invocations since the last call; drains to zero. */
    std::uint64_t
    takeBatches()
    {
        std::uint64_t b = batches_;
        batches_ = 0;
        return b;
    }

  private:
    /** What one gather() pass probes and emits. */
    enum class Mode
    {
        Compact, ///< Address sets and colors; counted probes.
        Addrs,   ///< Address sets only; counted address-only probes.
        Colors,  ///< Colors only; uncounted peeks, no batch counted.
    };

    /**
     * The one gather-accumulate loop behind every entry point; the
     * footprint walk, blend weights and probe order are shared, so each
     * mode's outputs are bit-identical to the matching part of the
     * others'.
     */
    template <Mode kMode>
    void gather(const TextureSampler &sampler, const Vec2 *uvs, int n,
                const LodSelect &sel, FootprintMemo &memo,
                TexelAddrSet *addrs, Color4f *colors);

    std::uint64_t batches_ = 0;
    /**
     * Reusable AF sample-center scratch: Vec2's default member
     * initializers would zero-fill a kMaxLanes local on every
     * anisotropic*() call. Dead between calls.
     */
    Vec2 uvs_[kMaxLanes];
    /** Per-sample color scratch of anisotropicColor(); same reasoning. */
    Color4f colors_[kMaxLanes];
    /** Footprint scratch of an evicted footprint's Colors-mode peek. */
    Color4f peek_[4];
};

} // namespace pargpu::simd

#endif // PARGPU_SIMD_FILTER_HH
