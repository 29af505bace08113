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

#include <string>

#include "scenes/scenes.hh"

namespace pargpu
{

/** Trace file magic + version. */
inline constexpr std::uint32_t kTraceMagic = 0x50475431; // "PGT1"

/** Largest viewport width or height readTrace() accepts. */
inline constexpr std::uint32_t kMaxTraceViewport = 16384;

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
 * or above kMaxTraceViewport, a texture id at or past the texture count,
 * or a vertex index at or past its draw's vertex count.
 *
 * @param path  File to read.
 * @param ok    Set to whether the load succeeded.
 */
GameTrace readTrace(const std::string &path, bool &ok);

} // namespace pargpu

#endif // PARGPU_TRACE_TRACE_HH
