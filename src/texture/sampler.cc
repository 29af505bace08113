#include "texture/sampler.hh"

#include <algorithm>
#include <cmath>

#include "common/contract.hh"

namespace pargpu
{

AnisotropyInfo
TextureSampler::computeAnisotropy(const Vec2 &duvdx, const Vec2 &duvdy,
                                  int max_aniso) const
{
    AnisotropyInfo info;
    const float w = static_cast<float>(tex_->width());
    const float h = static_cast<float>(tex_->height());

    // Footprint extents in level-0 texel units along each screen axis.
    Vec2 tx{duvdx.x * w, duvdx.y * h};
    Vec2 ty{duvdy.x * w, duvdy.y * h};
    // Held in [kMinExtent, kMaxExtent]: derivatives of huge uvs overflow
    // length() to inf, or to NaN once the rasterizer's differences hit
    // inf - inf, and the LODs and the degree's int conversion below need
    // finite extents. NaN takes the cap. At 2^32 texels the LODs stay
    // within 32, past the coarsest level of any texture.
    constexpr float kMinExtent = 1e-6f;
    constexpr float kMaxExtent = 4294967296.0f;
    float px = tx.length();
    float py = ty.length();
    px = px < kMaxExtent ? std::max(px, kMinExtent) : kMaxExtent;
    py = py < kMaxExtent ? std::max(py, kMinExtent) : kMaxExtent;

    if (px >= py) {
        info.pMax = px;
        info.pMin = py;
        info.majorUv = duvdx;
    } else {
        info.pMax = py;
        info.pMin = px;
        info.majorUv = duvdy;
    }

    // The anisotropy degree is the axis ratio (Section IV-C(A)), rounded
    // up so the sample footprints always cover the ellipse. The filtering
    // pipelines further round the issued sample count up to a power of
    // two (2/4/8/16-sample groups); the over-sampling packs successive
    // samples less than a texel apart, which is the root of the texel-set
    // sharing Fig. 12 measures. The ratio reaches 4e15 at the extent
    // bounds, past int's range, so it is capped at max_aniso before the
    // conversion; the clamp would make any larger value max_aniso anyway.
    float ratio = info.pMax / info.pMin;
    info.anisoDegree = std::clamp(
        static_cast<int>(std::ceil(
            std::min(ratio - 1e-4f, static_cast<float>(max_aniso)))),
        1, max_aniso);
    int pow2 = 1;
    while (pow2 < info.anisoDegree)
        pow2 *= 2;
    info.sampleSize = std::min(pow2, max_aniso);

    // TF samples an isotropic square sized by the major extent (the square
    // with equivalent diagonals, Section IV-A); AF's LOD follows the minor
    // axis so each of the N samples stays sharp (Section V-C(2)).
    info.lodTF = std::log2(std::max(info.pMax, 1.0f));
    info.lodAF = std::log2(std::max(info.pMin, 1.0f));
    PARGPU_CHECK_RANGE(info.anisoDegree, 1, max_aniso,
                       "anisotropy degree escaped the clamp");
    PARGPU_CHECK_RANGE(info.sampleSize, 1, max_aniso,
                       "issued sample count escaped the clamp");
    PARGPU_INVARIANT(info.lodAF <= info.lodTF,
                     "AF LOD coarser than TF LOD: lodAF=", info.lodAF,
                     " lodTF=", info.lodTF);
    PARGPU_ASSERT(std::isfinite(info.lodTF) && std::isfinite(info.lodAF),
                  "non-finite LOD from derivatives: lodTF=", info.lodTF,
                  " lodAF=", info.lodAF);
    return info;
}

LodSelect
TextureSampler::selectLod(float lod) const
{
    LodSelect sel;
    const int max_level = tex_->numLevels() - 1;
    if (lod <= 0.0f) {
        sel.level0 = sel.level1 = 0;
        sel.frac = 0.0f;
    } else if (lod >= static_cast<float>(max_level)) {
        sel.level0 = sel.level1 = max_level;
        sel.frac = 0.0f;
    } else {
        sel.level0 = static_cast<int>(std::floor(lod));
        sel.level1 = sel.level0 + 1;
        sel.frac = lod - static_cast<float>(sel.level0);
    }
    // The selected levels must land inside the mip chain (the clamps
    // above guarantee it for any finite lod, including negatives).
    PARGPU_CHECK_RANGE(sel.level0, 0, max_level, "lod=", lod);
    PARGPU_CHECK_RANGE(sel.level1, sel.level0, max_level, "lod=", lod);
    PARGPU_CHECK_RANGE(sel.frac, 0.0f, 1.0f, "lod=", lod);
    return sel;
}

void
TextureSampler::trilinearInto(const Vec2 &uv, const LodSelect &sel,
                              TrilinearSample &out,
                              FootprintMemo *memo) const
{
    out.uv = uv;
    out.level0 = sel.level0;
    out.level1 = sel.level1;
    out.frac = sel.frac;

    Color4f acc{0, 0, 0, 0};
    int slot = 0;
    for (int li = 0; li < 2; ++li) {
        int level = li == 0 ? sel.level0 : sel.level1;
        float level_w = li == 0 ? 1.0f - sel.frac : sel.frac;
        const MipLevel &lv = tex_->level(level);
        float tu = uv.x * lv.width - 0.5f;
        float tv = uv.y * lv.height - 0.5f;
        int x0 = texelFloor(tu);
        int y0 = texelFloor(tv);
        float fu = tu - std::floor(tu);
        float fv = tv - std::floor(tv);
        const float bw[4] = {
            (1.0f - fu) * (1.0f - fv),
            fu * (1.0f - fv),
            (1.0f - fu) * fv,
            fu * fv,
        };
        // The 2x2 footprint's colors and addresses, through the per-quad
        // memo when available. A memo hit returns the exact values a
        // fresh fetch would, so the blend below is unchanged.
        Color4f fc[4];
        Addr fa[4];
        if (memo == nullptr || !memo->lookup(level, x0, y0, fc, fa)) {
            tex_->fetchFootprint(level, x0, y0, fc, fa);
            if (memo != nullptr)
                memo->store(level, x0, y0, fc, fa);
        }
        const int dx[4] = {0, 1, 0, 1};
        const int dy[4] = {0, 0, 1, 1};
        for (int i = 0; i < 4; ++i, ++slot) {
            TexelRef &t = out.texels[slot];
            t.level = level;
            t.x = x0 + dx[i];
            t.y = y0 + dy[i];
            t.weight = bw[i] * level_w;
            t.addr = fa[i];
            // When level0 == level1 (LOD clamped) the second level's weight
            // is zero and its texels duplicate the first; the color math is
            // unaffected and the address stream matches a hardware unit that
            // always issues both level fetches.
            acc += fc[i] * t.weight;
        }
    }
    out.color = acc;
}

TrilinearSample
TextureSampler::trilinear(const Vec2 &uv, float lod) const
{
    TrilinearSample s;
    trilinearInto(uv, selectLod(lod), s, nullptr);
    return s;
}

Color4f
TextureSampler::filterAnisotropicInto(const Vec2 &uv,
                                      const AnisotropyInfo &info,
                                      TrilinearSample *out,
                                      FootprintMemo *memo) const
{
    const int n = info.sampleSize;
    PARGPU_ASSERT(n >= 1, "anisotropic filter needs n >= 1, got ", n);
    const LodSelect sel = selectLod(info.lodAF);
    Color4f acc{0, 0, 0, 0};
    // Sample centers span only the ellipse interior: each trilinear
    // sample has an isotropic footprint of diameter pMin, so centers are
    // confined to the major extent minus one footprint ((pMax - pMin) /
    // pMax of the derivative vector). This keeps the union of footprints
    // inside the ellipse and — for small axis ratios — places successive
    // samples within a texel of each other, which is exactly the texel-
    // set sharing the paper measures in Fig. 12 and what the footprint
    // memo exploits.
    float span = info.pMax > 0.0f
        ? std::max(0.0f, 1.0f - info.pMin / info.pMax) : 0.0f;
    for (int i = 0; i < n; ++i) {
        // Offsets centered on the pixel: t_i in (-span/2, span/2); for
        // n == 1 this degenerates to the TF center.
        float t = span * (2.0f * i - n + 1.0f) / (2.0f * n);
        Vec2 sample_uv{uv.x + info.majorUv.x * t, uv.y + info.majorUv.y * t};
        trilinearInto(sample_uv, sel, out[i], memo);
        acc += out[i].color * (1.0f / static_cast<float>(n));
    }
    return acc;
}

} // namespace pargpu
