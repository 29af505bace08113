#include "trace/trace.hh"

#include <cstdio>
#include <memory>

namespace pargpu
{

namespace
{

// Little helpers for fixed-width binary I/O.
struct Writer
{
    std::FILE *f;
    bool ok = true;

    void
    u32(std::uint32_t v)
    {
        ok = ok && std::fwrite(&v, sizeof(v), 1, f) == 1;
    }

    void
    f32(float v)
    {
        ok = ok && std::fwrite(&v, sizeof(v), 1, f) == 1;
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        ok = ok &&
            std::fwrite(s.data(), 1, s.size(), f) == s.size();
    }

    void
    mat(const Mat4 &m)
    {
        for (int c = 0; c < 4; ++c)
            for (int r = 0; r < 4; ++r)
                f32(m.m[c][r]);
    }
};

struct Reader
{
    std::FILE *f;
    bool ok = true;

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        ok = ok && std::fread(&v, sizeof(v), 1, f) == 1;
        return v;
    }

    float
    f32()
    {
        float v = 0;
        ok = ok && std::fread(&v, sizeof(v), 1, f) == 1;
        return v;
    }

    std::string
    str()
    {
        std::uint32_t n = u32();
        if (!ok || n > (1u << 20)) {
            ok = false;
            return {};
        }
        std::string s(n, '\0');
        ok = ok && std::fread(s.data(), 1, n, f) == n;
        return s;
    }

    Mat4
    mat()
    {
        Mat4 m;
        for (int c = 0; c < 4; ++c)
            for (int r = 0; r < 4; ++r)
                m.m[c][r] = f32();
        return m;
    }
};

/** True when @p v names a value of the enum whose last value is @p last. */
template <typename E>
bool
inRange(std::uint32_t v, E last)
{
    return v <= static_cast<std::uint32_t>(last);
}

} // namespace

bool
writeTrace(const GameTrace &trace, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    Writer w{f};

    w.u32(kTraceMagic);
    w.str(trace.name);
    w.u32(static_cast<std::uint32_t>(trace.id));
    w.u32(static_cast<std::uint32_t>(trace.width));
    w.u32(static_cast<std::uint32_t>(trace.height));

    w.u32(static_cast<std::uint32_t>(trace.recipes.size()));
    for (const TextureRecipe &r : trace.recipes) {
        w.u32(static_cast<std::uint32_t>(r.kind));
        w.u32(static_cast<std::uint32_t>(r.size));
        w.u32(r.seed);
        w.u32(static_cast<std::uint32_t>(r.wrap));
    }

    w.u32(static_cast<std::uint32_t>(trace.scene.draws.size()));
    for (const DrawCall &d : trace.scene.draws) {
        w.u32(static_cast<std::uint32_t>(d.mesh.texture_id));
        w.u32(static_cast<std::uint32_t>(d.filter));
        w.u32((d.backface_cull ? 1u : 0u) | (d.specular ? 2u : 0u));
        w.mat(d.model);
        w.u32(static_cast<std::uint32_t>(d.mesh.vertices.size()));
        for (const Vertex &v : d.mesh.vertices) {
            w.f32(v.pos.x);
            w.f32(v.pos.y);
            w.f32(v.pos.z);
            w.f32(v.uv.x);
            w.f32(v.uv.y);
        }
        w.u32(static_cast<std::uint32_t>(d.mesh.indices.size()));
        for (std::uint32_t i : d.mesh.indices)
            w.u32(i);
    }

    w.u32(static_cast<std::uint32_t>(trace.cameras.size()));
    for (const Camera &c : trace.cameras) {
        w.mat(c.view);
        w.mat(c.proj);
        w.f32(c.eye.x);
        w.f32(c.eye.y);
        w.f32(c.eye.z);
    }

    bool ok = w.ok;
    std::fclose(f);
    return ok;
}

std::string
traceBudgetMessage()
{
    return "viewport sides must be at most " +
        std::to_string(kMaxTraceViewport) + ", frames at most " +
        std::to_string(kMaxTraceCameras) + ", and width x height x " +
        "frames at most " + std::to_string(kMaxTracePixelFrames);
}

GameTrace
readTrace(const std::string &path, bool &ok)
{
    GameTrace t;
    ok = false;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return t;
    Reader r{f};

    if (r.u32() != kTraceMagic) {
        std::fclose(f);
        return t;
    }
    t.name = r.str();
    t.scene.name = t.name;
    const std::uint32_t id = r.u32();
    const std::uint32_t width = r.u32();
    const std::uint32_t height = r.u32();
    if (!r.ok || !inRange(id, GameId::RBench) || width == 0 ||
        width > kMaxTraceViewport || height == 0 ||
        height > kMaxTraceViewport) {
        std::fclose(f);
        return t;
    }
    t.id = static_cast<GameId>(id);
    t.width = static_cast<int>(width);
    t.height = static_cast<int>(height);

    std::uint32_t ntex = r.u32();
    if (!r.ok || ntex > 4096) {
        std::fclose(f);
        return t;
    }
    for (std::uint32_t i = 0; i < ntex && r.ok; ++i) {
        TextureRecipe rec;
        const std::uint32_t kind = r.u32();
        rec.size = static_cast<int>(r.u32());
        rec.seed = r.u32();
        const std::uint32_t wrap = r.u32();
        if (!r.ok || rec.size <= 0 || rec.size > 8192 ||
            !inRange(kind, TextureKind::Panels) ||
            !inRange(wrap, WrapMode::ClampToEdge)) {
            r.ok = false;
            break;
        }
        rec.kind = static_cast<TextureKind>(kind);
        rec.wrap = static_cast<WrapMode>(wrap);
        t.recipes.push_back(rec);
        t.scene.addTexture(std::make_unique<TextureMap>(
            rec.size, rec.size,
            generateTexture(rec.kind, rec.size, rec.seed), rec.wrap));
    }

    std::uint32_t ndraws = r.u32();
    if (!r.ok || ndraws > (1u << 20)) {
        std::fclose(f);
        return t;
    }
    for (std::uint32_t i = 0; i < ndraws && r.ok; ++i) {
        DrawCall d;
        const std::uint32_t texture_id = r.u32();
        const std::uint32_t filter = r.u32();
        std::uint32_t flags = r.u32();
        d.backface_cull = (flags & 1u) != 0;
        d.specular = (flags & 2u) != 0;
        d.model = r.mat();
        std::uint32_t nverts = r.u32();
        if (!r.ok || nverts > (1u << 24) || texture_id >= ntex ||
            !inRange(filter, FilterMode::Anisotropic)) {
            r.ok = false;
            break;
        }
        d.mesh.texture_id = static_cast<int>(texture_id);
        d.filter = static_cast<FilterMode>(filter);
        d.mesh.vertices.resize(nverts);
        for (Vertex &v : d.mesh.vertices) {
            v.pos.x = r.f32();
            v.pos.y = r.f32();
            v.pos.z = r.f32();
            v.uv.x = r.f32();
            v.uv.y = r.f32();
        }
        std::uint32_t nidx = r.u32();
        if (!r.ok || nidx > (1u << 26)) {
            r.ok = false;
            break;
        }
        d.mesh.indices.resize(nidx);
        for (std::uint32_t &idx : d.mesh.indices) {
            idx = r.u32();
            if (idx >= nverts)
                r.ok = false;
        }
        if (!r.ok)
            break;
        t.scene.draws.push_back(std::move(d));
    }

    std::uint32_t ncams = r.u32();
    if (!r.ok || !withinTraceBudget(width, height, ncams)) {
        std::fclose(f);
        return t;
    }
    for (std::uint32_t i = 0; i < ncams && r.ok; ++i) {
        Camera c;
        c.view = r.mat();
        c.proj = r.mat();
        c.eye.x = r.f32();
        c.eye.y = r.f32();
        c.eye.z = r.f32();
        t.cameras.push_back(c);
    }

    ok = r.ok;
    std::fclose(f);
    return t;
}

} // namespace pargpu
