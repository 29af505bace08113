/**
 * @file
 * Runtime instruction-set dispatch for the SoA filtering kernels.
 *
 * The kernel layer has one source, kernels.cc, compiled at three ISA
 * levels: a scalar table (vectorizers off), an SSE table (base x86-64
 * ISA) and an AVX2 table (-mavx2); off x86 only the scalar table is
 * built. The process-wide active tier starts as the widest tier the host
 * CPU supports; setActiveTier() overrides it (PARGPU_SIMD, through
 * parseEnvironment()), so every tier stays forcible at run time. All
 * tiers produce bit-identical results; the tier only changes host
 * wall-clock, never simulated metrics.
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

/** Raw host CPUID feature flags (false off x86). */
bool hostHasSse();
bool hostHasAvx2();

} // namespace pargpu::simd

#endif // PARGPU_SIMD_DISPATCH_HH
