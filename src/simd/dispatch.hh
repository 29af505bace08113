/**
 * @file
 * Runtime instruction-set dispatch for the SoA filtering kernels.
 *
 * The kernel layer ships one scalar reference implementation plus SSE and
 * AVX2 variants (compiled only with -DPARGPU_SIMD=ON). The process-wide
 * active tier starts as the widest tier the host CPU supports;
 * setActiveTier() overrides it (PARGPU_SIMD, through parseEnvironment()).
 * All tiers produce bit-identical filtering results; the tier only
 * changes host wall-clock, never simulated metrics.
 */

#ifndef PARGPU_SIMD_DISPATCH_HH
#define PARGPU_SIMD_DISPATCH_HH

#include <string>

namespace pargpu::simd
{

/** Instruction-set tier of a kernel implementation. */
enum class SimdTier
{
    Scalar, ///< Portable reference (always available).
    Sse,    ///< 4-lane SSE2 (x86-64 baseline).
    Avx2,   ///< 8-lane AVX2.
};

/** Widest tier this build and the host CPU can run. */
SimdTier detectTier();

/**
 * The tier the process filters with: the last setActiveTier(), else
 * detectTier().
 */
SimdTier activeTier();

/** Why @p t cannot run in this build or on this CPU; empty if it can. */
std::string tierUnavailable(SimdTier t);

/**
 * Set the active tier (fatal if @p t is not runnable). Not thread-safe:
 * call before building simulators.
 */
void setActiveTier(SimdTier t);

/** "scalar" | "sse" | "avx2". */
const char *tierName(SimdTier t);

/** Vector width of a tier in samples (scalar 1, SSE 4, AVX2 8). */
int tierLanes(SimdTier t);

/** Raw host CPUID feature flags (independent of the build knob). */
bool hostHasSse();
bool hostHasAvx2();

} // namespace pargpu::simd

#endif // PARGPU_SIMD_DISPATCH_HH
