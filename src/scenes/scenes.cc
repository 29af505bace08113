#include "scenes/scenes.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/tracing.hh"
#include "scenes/meshes.hh"

namespace pargpu
{

namespace
{

/**
 * Global texel-density calibration. Commercial games of the paper's era
 * pair 256-512 px textures with 1280x1024+ screens, so surfaces near the
 * viewer are magnified along the minor footprint axis (pMin < 1) — the
 * regime in which AF's trilinear samples share texel sets (Fig. 12's
 * ~62 % statistic). This factor scales every draw's uv range to land the
 * suite in that regime.
 */
constexpr float kUvDensity = 0.15f;

/** Shared scene-building context. */
struct Builder
{
    GameTrace trace;

    /**
     * Record a texture recipe and return its slot; buildGameTrace()
     * generates every recipe's texels once the scene is laid out.
     */
    int
    texture(TextureKind kind, int size, std::uint32_t seed,
            WrapMode wrap = WrapMode::Repeat)
    {
        trace.recipes.push_back({kind, size, seed, wrap});
        return static_cast<int>(trace.recipes.size()) - 1;
    }

    void
    draw(Mesh mesh, FilterMode filter = FilterMode::Anisotropic,
         bool cull = true, bool specular = false)
    {
        for (Vertex &v : mesh.vertices)
            v.uv = v.uv * kUvDensity;
        DrawCall d;
        d.mesh = std::move(mesh);
        d.filter = filter;
        d.backface_cull = cull;
        d.specular = specular;
        trace.scene.draws.push_back(std::move(d));
    }

    /**
     * A large camera-facing backdrop (sky, distant wall). Such surfaces
     * have near-isotropic footprints (N == 1), matching the substantial
     * fraction of real game frames that never needs AF.
     */
    void
    backdrop(int texture_id, float z, float half_w, float height)
    {
        draw(makeGrid({-half_w, -5, z}, {2 * half_w, 0, 0},
                      {0, height, 0}, 8, 4, 6.0f / kUvDensity,
                      3.0f / kUvDensity, texture_id),
             FilterMode::Anisotropic, false);
    }

    /** Forward-walking camera path common to the corridor/track scenes. */
    void
    walkCameras(int frames, const Vec3 &start, float step, float eye_h,
                float look_down, float sway = 0.0f)
    {
        for (int f = 0; f < frames; ++f) {
            Camera cam;
            float z = start.z - step * f;
            float x = start.x +
                sway * std::sin(0.6f * static_cast<float>(f));
            Vec3 eye{x, eye_h, z};
            Vec3 at{x, eye_h - look_down, z - 10.0f};
            cam.eye = eye;
            cam.view = Mat4::lookAt(eye, at, {0, 1, 0});
            cam.proj = Mat4::perspective(
                1.1f,
                static_cast<float>(trace.width) / trace.height,
                0.3f, 400.0f);
            trace.cameras.push_back(cam);
        }
    }
};

// ---------------------------------------------------------------------
// HL2: outdoor terrain, water strip, distant buildings.
void
buildHl2(Builder &b, int frames)
{
    int grass = b.texture(TextureKind::Grass, 512, 11);
    int rock = b.texture(TextureKind::Noise, 512, 12);
    int brick = b.texture(TextureKind::Bricks, 512, 13);
    int marble = b.texture(TextureKind::Marble, 512, 14);

    // Remote mountain + sky backdrop (faces the camera: N == 1 pixels,
    // like the upper half of a real outdoor game frame).
    b.backdrop(rock, -150, 170, 110);
    // Large ground plane: the dominant grazing-angle surface.
    b.draw(makeGrid({-120, 0, 20}, {240, 0, 0}, {0, 0, -160}, 12, 24,
                    48.0f, 32.0f, grass));
    // Water sheet ahead of the path: rippling (specular) surface whose
    // glints vanish when the texture is blurred.
    b.draw(makeGrid({-35, 0.05f, -15}, {75, 0, 0}, {0, 0, -130}, 4, 16,
                    25.0f, 20.0f, marble), FilterMode::Anisotropic,
           true, true);
    // A few buildings along the path.
    for (int i = 0; i < 6; ++i) {
        Mesh box;
        box.texture_id = brick;
        float z = -40.0f - 55.0f * i;
        float x = (i % 2 == 0) ? -22.0f : 18.0f;
        appendBox(box, {x, 8, z}, {7, 8, 9}, 3.0f);
        b.draw(std::move(box));
    }
    b.walkCameras(frames, {0, 0, 0}, 6.0f, 1.8f, 0.35f, 0.4f);
}

// Doom3: dark panel corridors; low-contrast textures make AF's absence
// hard to perceive at high resolution (Section VII-A observation 3).
void
buildDoom3(Builder &b, int frames)
{
    int panel = b.texture(TextureKind::Panels, 512, 21);
    int floor = b.texture(TextureKind::Panels, 512, 22);
    int pipe = b.texture(TextureKind::Noise, 256, 23);

    const float w = 8.0f, h = 5.0f, len = 120.0f;
    // Corridor end wall: the facing surface at the vanishing point.
    b.backdrop(panel, -len + 12, w, h + 2);
    // Floor and ceiling (grazing surfaces).
    b.draw(makeGrid({-w, 0, 10}, {2 * w, 0, 0}, {0, 0, -len}, 4, 24,
                    8.0f, 28.0f, floor));
    b.draw(makeGrid({-w, h, 10}, {0, 0, -len}, {2 * w, 0, 0}, 24, 4,
                    28.0f, 8.0f, panel));
    // Side walls.
    b.draw(makeGrid({-w, 0, 10}, {0, 0, -len}, {0, h, 0}, 24, 3,
                    24.0f, 4.0f, panel));
    b.draw(makeGrid({w, 0, 10}, {0, h, 0}, {0, 0, -len}, 3, 24,
                    4.0f, 24.0f, panel));
    // Crates along the corridor: their front faces are camera-facing.
    for (int i = 0; i < 10; ++i) {
        Mesh box;
        box.texture_id = pipe;
        float z = -18.0f - 26.0f * i;
        float x = (i % 2 == 0) ? -4.6f : 4.0f;
        appendBox(box, {x, 1.8f, z}, {2.2f, 1.8f, 1.8f}, 2.0f);
        b.draw(std::move(box));
    }
    b.trace.scene.clear_color = {0.02f, 0.02f, 0.03f, 1.0f};
    b.walkCameras(frames, {0, 0, 4}, 5.0f, 1.7f, 0.25f, 0.3f);
}

// Grid / NFS: racing — a vast striped track at extreme grazing angles.
void
buildRacing(Builder &b, int frames, bool urban)
{
    int track = b.texture(TextureKind::Stripes, 512, urban ? 31 : 41);
    int ground = b.texture(TextureKind::Noise, 512, urban ? 32 : 42);
    int barrier = b.texture(TextureKind::Checker, 256, urban ? 33 : 43);
    int building = b.texture(TextureKind::Panels, 512, urban ? 34 : 44);

    // Horizon / stadium backdrop.
    b.backdrop(building, -190, 210, 140);
    // The track: the single most anisotropic surface in the suite; its
    // glossy surface glints under the glint (specular) pass.
    b.draw(makeGrid({-10, 0, 30}, {20, 0, 0}, {0, 0, -200}, 4, 40,
                    6.0f, 64.0f, track), FilterMode::Anisotropic,
           true, true);
    // Grass / ground on both sides.
    b.draw(makeGrid({-150, -0.02f, 30}, {140, 0, 0}, {0, 0, -200}, 6, 24,
                    40.0f, 48.0f, ground));
    b.draw(makeGrid({10, -0.02f, 30}, {140, 0, 0}, {0, 0, -200}, 6, 24,
                    40.0f, 48.0f, ground));
    // Barriers lining the track.
    b.draw(makeGrid({-10.5f, 0, 30}, {0, 0, -200}, {0, 1.2f, 0}, 40, 1,
                    80.0f, 1.0f, barrier));
    b.draw(makeGrid({10.5f, 0, 30}, {0, 1.2f, 0}, {0, 0, -200}, 1, 40,
                    1.0f, 80.0f, barrier));
    if (urban) {
        for (int i = 0; i < 10; ++i) {
            Mesh box;
            box.texture_id = building;
            float z = -30.0f - 45.0f * i;
            float x = (i % 2 == 0) ? -30.0f : 28.0f;
            appendBox(box, {x, 14, z}, {9, 14, 10}, 4.0f);
            b.draw(std::move(box));
        }
    }
    // Low car-style camera for extreme track anisotropy.
    b.walkCameras(frames, {0, 0, 10}, 12.0f, 1.1f, 0.12f, 0.8f);
}

// Stalker: outdoor ruins — noise terrain + broken brick structures.
void
buildStalker(Builder &b, int frames)
{
    int dirt = b.texture(TextureKind::Noise, 512, 51);
    int brick = b.texture(TextureKind::Bricks, 512, 52);
    int rust = b.texture(TextureKind::Wood, 512, 53);

    // Overcast sky / treeline backdrop.
    b.backdrop(dirt, -150, 170, 110);
    b.draw(makeGrid({-120, 0, 20}, {240, 0, 0}, {0, 0, -140}, 10, 20,
                    60.0f, 36.0f, dirt));
    // Rain puddles on the central path (specular).
    b.draw(makeGrid({-8, 0.03f, 15}, {16, 0, 0}, {0, 0, -130}, 2, 12,
                    5.0f, 18.0f, rust), FilterMode::Anisotropic, true,
           true);
    for (int i = 0; i < 7; ++i) {
        // Ruined walls at varying orientations.
        float z = -25.0f - 40.0f * i;
        float x = (i % 2 == 0) ? -15.0f : 12.0f;
        float ang = 0.5f * static_cast<float>(i);
        Vec3 dir{std::cos(ang) * 14.0f, 0, std::sin(ang) * 14.0f};
        b.draw(makeGrid({x, 0, z}, dir, {0, 5.0f + (i % 3), 0}, 4, 2,
                        6.0f, 2.5f, brick), FilterMode::Anisotropic,
               false);
    }
    for (int i = 0; i < 4; ++i) {
        Mesh box;
        box.texture_id = rust;
        appendBox(box, {(i % 2) ? 6.0f : -7.0f, 1.0f,
                        -35.0f - 60.0f * i}, {1.5f, 1.0f, 2.5f}, 2.0f);
        b.draw(std::move(box));
    }
    b.walkCameras(frames, {0, 0, 0}, 5.0f, 1.8f, 0.3f, 0.5f);
}

// UT3: arena — marble floors, panel walls, central structures.
void
buildUt3(Builder &b, int frames)
{
    int floor = b.texture(TextureKind::Marble, 512, 61);
    int wall = b.texture(TextureKind::Panels, 512, 62);
    int core = b.texture(TextureKind::Checker, 512, 63);

    const float s = 60.0f;
    // The arena's far wall faces the camera for most of the orbit; the
    // polished marble floor carries specular glints.
    b.backdrop(wall, -s + 2, s, 40);
    b.draw(makeGrid({-s, 0, s}, {2 * s, 0, 0}, {0, 0, -2 * s}, 8, 8,
                    24.0f, 24.0f, floor), FilterMode::Anisotropic,
           true, true);
    // Surrounding walls.
    b.draw(makeGrid({-s, 0, -s}, {2 * s, 0, 0}, {0, 18, 0}, 8, 2,
                    16.0f, 3.0f, wall));
    b.draw(makeGrid({-s, 0, s}, {0, 18, 0}, {0, 0, -2 * s}, 2, 8,
                    3.0f, 16.0f, wall));
    b.draw(makeGrid({s, 0, s}, {0, 0, -2 * s}, {0, 18, 0}, 8, 2,
                    16.0f, 3.0f, wall));
    // Central platforms.
    for (int i = 0; i < 5; ++i) {
        Mesh box;
        box.texture_id = core;
        appendBox(box, {-20.0f + 10.0f * i, 1.5f, -10.0f - 8.0f * i},
                  {3, 1.5f, 3}, 2.0f);
        b.draw(std::move(box));
    }
    b.walkCameras(frames, {0, 0, 45}, 4.0f, 2.0f, 0.3f, 1.2f);
}

// Wolfenstein: tight low-res indoor corridor, wood and brick.
void
buildWolf(Builder &b, int frames)
{
    int wood = b.texture(TextureKind::Wood, 256, 71);
    int brick = b.texture(TextureKind::Bricks, 256, 72);

    const float w = 6.0f, h = 4.0f, len = 100.0f;
    // End wall at the vanishing point.
    b.backdrop(brick, -len + 10, w, h + 1);
    // Polished wooden floor: waxed-floor glints need sharp filtering.
    b.draw(makeGrid({-w, 0, 10}, {2 * w, 0, 0}, {0, 0, -len}, 3, 16,
                    10.0f, 25.0f, wood), FilterMode::Anisotropic, true,
           true);
    b.draw(makeGrid({-w, h, 10}, {0, 0, -len}, {2 * w, 0, 0}, 16, 3,
                    25.0f, 10.0f, wood));
    b.draw(makeGrid({-w, 0, 10}, {0, 0, -len}, {0, h, 0}, 16, 2,
                    20.0f, 3.0f, brick));
    b.draw(makeGrid({w, 0, 10}, {0, h, 0}, {0, 0, -len}, 2, 16,
                    3.0f, 20.0f, brick));
    b.walkCameras(frames, {0, 0, 4}, 4.0f, 1.6f, 0.2f, 0.25f);
}

// R.Bench stand-in: texture-rate stress with many overlapping high-detail
// layers, both grazing and facing.
void
buildRBench(Builder &b, int frames)
{
    int t0 = b.texture(TextureKind::Marble, 1024, 81);
    int t1 = b.texture(TextureKind::Checker, 1024, 82);
    int t2 = b.texture(TextureKind::Noise, 1024, 83);
    int t3 = b.texture(TextureKind::Stripes, 1024, 84);

    b.backdrop(t2, -150, 170, 110);
    b.draw(makeGrid({-100, 0, 20}, {200, 0, 0}, {0, 0, -160}, 10, 20,
                    80.0f, 64.0f, t1), FilterMode::Anisotropic, true,
           true);
    b.draw(makeGrid({-100, 12, 20}, {0, 0, -160}, {200, 0, 0}, 20, 10,
                    64.0f, 80.0f, t3));
    // Slanted panels at many angles.
    for (int i = 0; i < 12; ++i) {
        float z = -15.0f - 25.0f * i;
        float ang = 0.4f * static_cast<float>(i);
        Vec3 dir{std::cos(ang) * 16.0f, 0.0f, std::sin(ang) * 10.0f};
        b.draw(makeGrid({-8.0f + 1.5f * (i % 4), 0, z}, dir,
                        {0, 9, 0}, 4, 3, 12.0f, 6.0f,
                        (i % 2) ? t0 : t2),
               FilterMode::Anisotropic, false);
    }
    b.walkCameras(frames, {0, 0, 10}, 7.0f, 2.2f, 0.3f, 0.6f);
}

} // namespace

const char *
gameAbbr(GameId id)
{
    switch (id) {
      case GameId::HL2:
        return "HL2";
      case GameId::Doom3:
        return "doom3";
      case GameId::Grid:
        return "grid";
      case GameId::Nfs:
        return "nfs";
      case GameId::Stalker:
        return "stal";
      case GameId::Ut3:
        return "ut3";
      case GameId::Wolf:
        return "wolf";
      case GameId::RBench:
        return "R.Bench";
    }
    return "?";
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
buildGameTrace(GameId id, int width, int height, int frames)
{
    if (width <= 0 || height <= 0 || frames <= 0)
        fatal("buildGameTrace: invalid dimensions or frame count");
    if (!withinTraceBudget(static_cast<std::uint64_t>(width),
                           static_cast<std::uint64_t>(height),
                           static_cast<std::uint64_t>(frames)))
        fatal("buildGameTrace: " + traceBudgetMessage());

    Builder b;
    b.trace.id = id;
    b.trace.width = width;
    b.trace.height = height;
    b.trace.name = std::string(gameAbbr(id)) + "-" +
        std::to_string(width) + "x" + std::to_string(height);
    b.trace.scene.name = b.trace.name;

    switch (id) {
      case GameId::HL2:
        buildHl2(b, frames);
        break;
      case GameId::Doom3:
        buildDoom3(b, frames);
        break;
      case GameId::Grid:
        buildRacing(b, frames, false);
        break;
      case GameId::Nfs:
        buildRacing(b, frames, true);
        break;
      case GameId::Stalker:
        buildStalker(b, frames);
        break;
      case GameId::Ut3:
        buildUt3(b, frames);
        break;
      case GameId::Wolf:
        buildWolf(b, frames);
        break;
      case GameId::RBench:
        buildRBench(b, frames);
        break;
    }
    buildSceneTextures(b.trace);
    return std::move(b.trace);
}

void
buildSceneTextures(GameTrace &trace)
{
    PARGPU_TRACE_SPAN(build, "scenes", "build");
    for (const TextureRecipe &rec : trace.recipes) {
        PARGPU_TRACE_SCOPE_F("scenes", "texture", rec.size);
        std::vector<RGBA8> texels;
        {
            PARGPU_TRACE_SCOPE_F("scenes", "synth", rec.size);
            texels = generateTexture(rec.kind, rec.size, rec.seed);
        }
        PARGPU_TRACE_SCOPE_F("scenes", "mips", rec.size);
        trace.scene.addTexture(std::make_unique<TextureMap>(
            rec.size, rec.size, std::move(texels), rec.wrap));
    }
    build.setValue(static_cast<double>(trace.scene.textures.size()));
}

std::vector<BenchmarkEntry>
paperBenchmarks()
{
    return {
        {GameId::HL2, "HL2", "Half-Life 2", 1600, 1200, "DirectX3D"},
        {GameId::HL2, "HL2", "Half-Life 2", 1280, 1024, "DirectX3D"},
        {GameId::HL2, "HL2", "Half-Life 2", 640, 480, "DirectX3D"},
        {GameId::Doom3, "doom3", "Doom 3", 1600, 1200, "OpenGL"},
        {GameId::Doom3, "doom3", "Doom 3", 1280, 1024, "OpenGL"},
        {GameId::Doom3, "doom3", "Doom 3", 640, 480, "OpenGL"},
        {GameId::Grid, "grid", "GRID", 1280, 1024, "DirectX3D"},
        {GameId::Nfs, "nfs", "Need For Speed", 1280, 1024, "DirectX3D"},
        {GameId::Stalker, "stal", "S.T.A.L.K.E.R.: Call of Pripyat",
         1280, 1024, "DirectX3D"},
        {GameId::Ut3, "ut3", "Unreal Tournament 3", 1280, 1024,
         "DirectX3D"},
        {GameId::Wolf, "wolf", "Wolfenstein", 640, 480, "DirectX3D"},
    };
}

} // namespace pargpu
