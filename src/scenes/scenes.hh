/**
 * @file
 * Procedural game scenes standing in for the paper's Table II traces.
 *
 * Each generator produces a deterministic multi-frame trace whose geometry
 * and texture statistics are tuned to a distinct point of the anisotropy-
 * distribution space (see DESIGN.md): racing games have vast grazing-angle
 * track surfaces (heavy AF), indoor shooters mix walls and floors, and the
 * R.Bench stand-in stresses texture rate. The absolute content differs from
 * the commercial games; the workload *shape* — which is what every
 * experiment in the paper measures — is preserved.
 */

#ifndef PARGPU_SCENES_SCENES_HH
#define PARGPU_SCENES_SCENES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/geometry.hh"
#include "texture/procedural.hh"

namespace pargpu
{

/** The evaluated workloads (Table II plus the R.Bench stand-in). */
enum class GameId
{
    HL2,     ///< Half-Life 2 style: outdoor terrain + buildings.
    Doom3,   ///< Doom 3 style: dark indoor corridors.
    Grid,    ///< GRID style: racing track.
    Nfs,     ///< Need For Speed style: street racing.
    Stalker, ///< S.T.A.L.K.E.R. style: outdoor ruins.
    Ut3,     ///< Unreal Tournament 3 style: arena.
    Wolf,    ///< Wolfenstein style: low-res indoor.
    RBench,  ///< Relative Benchmark style: texture-rate stress.
};

/** Short name used in result tables ("HL2", "doom3", ...). */
const char *gameAbbr(GameId id);

/** How a texture slot was generated (for trace serialization). */
struct TextureRecipe
{
    TextureKind kind = TextureKind::Noise;
    int size = 512;
    std::uint32_t seed = 0;
    WrapMode wrap = WrapMode::Repeat;
};

/** A complete replayable workload: scene + per-frame cameras. */
struct GameTrace
{
    std::string name;            ///< e.g. "HL2-1600x1200".
    GameId id = GameId::HL2;
    int width = 1280;
    int height = 1024;
    Scene scene;
    std::vector<Camera> cameras; ///< One per frame.
    std::vector<TextureRecipe> recipes; ///< Parallel to scene.textures.
};

/** Largest viewport width or height of a trace. */
inline constexpr std::uint32_t kMaxTraceViewport = 16384;

/** Largest camera (frame) count of a trace. */
inline constexpr std::uint32_t kMaxTraceCameras = 1u << 20;

/**
 * Largest width x height x frames a trace may describe: 2^30 pixel
 * frames, e.g. 819 frames at 1280x1024 or four at the largest viewport.
 * Each side and the frame count are capped on their own, but their
 * product is what a run renders.
 */
inline constexpr std::uint64_t kMaxTracePixelFrames = std::uint64_t{1} << 30;

/**
 * True when a @p width x @p height viewport over @p frames frames is
 * within kMaxTraceViewport, kMaxTraceCameras and kMaxTracePixelFrames
 * (upper limits only; callers reject zero where it is invalid).
 */
constexpr bool
withinTraceBudget(std::uint64_t width, std::uint64_t height,
                  std::uint64_t frames)
{
    // The side and frame caps come first: they keep the product from
    // overflowing.
    return width <= kMaxTraceViewport && height <= kMaxTraceViewport &&
        frames <= kMaxTraceCameras &&
        width * height * frames <= kMaxTracePixelFrames;
}

/** What withinTraceBudget() allows, for a rejection message. */
std::string traceBudgetMessage();

/**
 * Build the trace for @p id at the given resolution. fatal() unless
 * each size is positive and withinTraceBudget(), the limits readTrace()
 * applies to a file.
 *
 * @param frames  Number of camera frames to generate.
 */
GameTrace buildGameTrace(GameId id, int width, int height, int frames = 3);

/**
 * Generate every texture of @p trace.recipes, in order, and bind it into
 * @p trace.scene, which must hold no textures yet. Each texture's texels
 * and mip pyramid are built in row bands on the shared pool; the result
 * is bit-identical to a serial build at any pool size.
 */
void buildSceneTextures(GameTrace &trace);

/** One row of the paper's Table II. */
struct BenchmarkEntry
{
    GameId id;
    const char *abbr;
    const char *full_name;
    int width;
    int height;
    const char *library; ///< Rendering API of the original game.
};

/**
 * The nine game/resolution pairs evaluated throughout Section VII
 * (HL2 and Doom3 at three resolutions each, plus five games at one).
 */
std::vector<BenchmarkEntry> paperBenchmarks();

} // namespace pargpu

#endif // PARGPU_SCENES_SCENES_HH
