/**
 * @file
 * Binary trace serialization for game workloads — the analog of the
 * ATTILA-trace capture the paper replays.
 *
 * A trace stores texture *recipes* (procedural generator parameters)
 * rather than raw texels, the full draw lists with transforms and filter
 * settings, and the per-frame cameras. Reading a trace reconstructs a
 * bit-identical workload.
 */

#ifndef PARGPU_TRACE_TRACE_HH
#define PARGPU_TRACE_TRACE_HH

#include <cstdint>
#include <string>

#include "scenes/scenes.hh"

namespace pargpu
{

/** Trace file magic + version. */
inline constexpr std::uint32_t kTraceMagic = 0x50475431; // "PGT1"

/** Largest viewport width or height readTrace() accepts. */
inline constexpr std::uint32_t kMaxTraceViewport = 16384;

/** Largest camera (frame) count readTrace() accepts. */
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
 * Serialize @p trace to @p path.
 * @return true on success.
 */
bool writeTrace(const GameTrace &trace, const std::string &path);

/**
 * Load a trace previously written with writeTrace(); textures are
 * regenerated from their recipes.
 *
 * Besides truncation and oversized counts, the load fails on any value
 * the renderer would index or switch on unchecked: an enum (GameId,
 * TextureKind, WrapMode, FilterMode) out of range, a viewport side of 0
 * or above kMaxTraceViewport, a viewport and camera count outside
 * withinTraceBudget(), a texture id at or past the texture count, or a
 * vertex index at or past its draw's vertex count.
 *
 * @param path  File to read.
 * @param ok    Set to whether the load succeeded.
 */
GameTrace readTrace(const std::string &path, bool &ok);

} // namespace pargpu

#endif // PARGPU_TRACE_TRACE_HH
