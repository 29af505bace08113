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

/**
 * Largest |u| or |v| a trace vertex may carry: 2^24. Adjacent floats are
 * 2 apart there, so a larger uv cannot tell one texture repeat from the
 * next, let alone one texel from another.
 *
 * The limit keeps the rasterizer's perspective-correct uv finite
 * (edgeQuad() in simd/kernels.cc). A lane's uv is u_w * rcp =
 * sum(l_k * u_k) / sum(l_k), with l_k its barycentric weight of vertex k
 * times that vertex's 1/w. In a covered lane every l_k >= 0 (weights in
 * [0, 1], vertices clipped in front of the near plane), so the uv is a
 * weighted mean of the vertex uvs and |u| <= 2^24. In any lane, |u| <=
 * 2^24 * sum(|l_k|) / |sum(l_k)|, which reaches float's maximum (2^128)
 * only where the 1/w plane cancels to 2^-104 of its terms, at the
 * triangle plane's horizon. Uvs stretched to 3e38 overflow instead and
 * leave 1004 of the 3072 pixels of an HL2 64x48 frame NaN.
 */
inline constexpr float kMaxTraceUv = 16777216.0f;

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
 * withinTraceBudget(), a texture id at or past the texture count, a
 * vertex index at or past its draw's vertex count, a non-finite float
 * (vertex position or uv, model/view/projection matrix entry, camera
 * eye), or a uv component beyond kMaxTraceUv in magnitude.
 *
 * @param path  File to read.
 * @param ok    Set to whether the load succeeded.
 */
GameTrace readTrace(const std::string &path, bool &ok);

} // namespace pargpu

#endif // PARGPU_TRACE_TRACE_HH
