#include "sim/raster.hh"

#include <cmath>

#include "common/contract.hh"

namespace pargpu
{

namespace
{

/** A clip-space vertex with its attributes, used during near clipping. */
struct ClipVertex
{
    Vec4 pos;
    Vec2 uv;
};

// Interpolate between two clip vertices at parameter t.
ClipVertex
lerpClip(const ClipVertex &a, const ClipVertex &b, float t)
{
    ClipVertex r;
    r.pos = a.pos + (b.pos - a.pos) * t;
    r.uv = a.uv + (b.uv - a.uv) * t;
    return r;
}

// Sutherland-Hodgman clip of a polygon against the near plane z + w >= 0.
// Returns the clipped polygon (0..n+1 vertices).
std::vector<ClipVertex>
clipNear(const std::vector<ClipVertex> &poly)
{
    std::vector<ClipVertex> out;
    const std::size_t n = poly.size();
    for (std::size_t i = 0; i < n; ++i) {
        const ClipVertex &cur = poly[i];
        const ClipVertex &nxt = poly[(i + 1) % n];
        float dc = cur.pos.z + cur.pos.w;
        float dn = nxt.pos.z + nxt.pos.w;
        bool cin = dc >= 0.0f;
        bool nin = dn >= 0.0f;
        if (cin)
            out.push_back(cur);
        if (cin != nin) {
            float t = dc / (dc - dn);
            out.push_back(lerpClip(cur, nxt, t));
        }
    }
    return out;
}

// Project a clip vertex to screen space.
ScreenVertex
project(const ClipVertex &cv, int vp_w, int vp_h)
{
    ScreenVertex s;
    float inv_w = 1.0f / cv.pos.w;
    float ndc_x = cv.pos.x * inv_w;
    float ndc_y = cv.pos.y * inv_w;
    float ndc_z = cv.pos.z * inv_w;
    s.x = (ndc_x * 0.5f + 0.5f) * static_cast<float>(vp_w);
    s.y = (0.5f - ndc_y * 0.5f) * static_cast<float>(vp_h);
    s.z = ndc_z * 0.5f + 0.5f;
    s.inv_w = inv_w;
    s.u_w = cv.uv.x * inv_w;
    s.v_w = cv.uv.y * inv_w;
    return s;
}

// Finish setup of one screen triangle; returns false if degenerate,
// culled, or outside the viewport.
bool
finishSetup(ScreenVertex sv[3], float shade, int texture_id,
            FilterMode filter, bool cull, bool specular,
            int vp_w, int vp_h, SetupTriangle &out)
{
    float area2 = edgeFunction(sv[0].x, sv[0].y, sv[1].x, sv[1].y,
                               sv[2].x, sv[2].y);
    // Screen-space winding: our projection flips y, so a counter-clockwise
    // (front-facing) triangle has positive area here.
    if (cull && area2 <= 0.0f)
        return false;
    // Exact-zero test: a degenerate triangle produces exactly 0 from the
    // edge function; near-zero slivers must still rasterize. Positions
    // near float's range overflow the edge function to inf or NaN (which
    // every comparison above lets through): culled too.
    if (area2 == 0.0f || !std::isfinite(area2)) // pargpu-lint: allow(float-eq)
        return false;
    if (area2 < 0.0f) {
        std::swap(sv[1], sv[2]);
        area2 = -area2;
    }
    PARGPU_ASSERT(area2 > 0.0f && std::isfinite(1.0f / area2),
                  "degenerate triangle escaped the area test: area2=",
                  area2);

    out.v[0] = sv[0];
    out.v[1] = sv[1];
    out.v[2] = sv[2];
    out.inv_area = 1.0f / area2;
    out.shade = shade;
    out.texture_id = texture_id;
    out.filter = filter;
    out.specular = specular;

    float min_xf = std::min({sv[0].x, sv[1].x, sv[2].x});
    float max_xf = std::max({sv[0].x, sv[1].x, sv[2].x});
    float min_yf = std::min({sv[0].y, sv[1].y, sv[2].y});
    float max_yf = std::max({sv[0].y, sv[1].y, sv[2].y});
    out.min_x = std::max(0, static_cast<int>(std::floor(min_xf)));
    out.min_y = std::max(0, static_cast<int>(std::floor(min_yf)));
    out.max_x = std::min(vp_w - 1, static_cast<int>(std::ceil(max_xf)));
    out.max_y = std::min(vp_h - 1, static_cast<int>(std::ceil(max_yf)));
    return out.min_x <= out.max_x && out.min_y <= out.max_y;
}

} // namespace

int
setupTriangles(const Vertex tri[3], const Mat4 &mvp, float shade,
               int texture_id, FilterMode filter, bool cull,
               int vp_w, int vp_h, SetupTriangle *out, bool specular)
{
    std::vector<ClipVertex> poly;
    poly.reserve(4);
    for (int i = 0; i < 3; ++i)
        poly.push_back({mvp * Vec4{tri[i].pos, 1.0f}, tri[i].uv});

    // Fast path: fully in front of the near plane.
    bool all_in = true;
    for (const ClipVertex &cv : poly)
        all_in &= (cv.pos.z + cv.pos.w) >= 0.0f;
    if (!all_in) {
        poly = clipNear(poly);
        if (poly.size() < 3)
            return 0;
    }

    int added = 0;
    // Fan-triangulate the clipped polygon (3 or 4 vertices).
    for (std::size_t i = 1; i + 1 < poly.size(); ++i) {
        ScreenVertex sv[3] = {
            project(poly[0], vp_w, vp_h),
            project(poly[i], vp_w, vp_h),
            project(poly[i + 1], vp_w, vp_h),
        };
        SetupTriangle st;
        if (finishSetup(sv, shade, texture_id, filter, cull, specular,
                        vp_w, vp_h, st)) {
            out[added] = st;
            ++added;
        }
    }
    return added;
}

int
setupTriangles(const Vertex tri[3], const Mat4 &mvp, float shade,
               int texture_id, FilterMode filter, bool cull,
               int vp_w, int vp_h, std::vector<SetupTriangle> &out,
               bool specular)
{
    SetupTriangle buf[2];
    const int n = setupTriangles(tri, mvp, shade, texture_id, filter,
                                 cull, vp_w, vp_h, buf, specular);
    for (int i = 0; i < n; ++i)
        out.push_back(buf[i]);
    return n;
}

} // namespace pargpu
