#include "simd/dispatch.hh"

#include <string>

#include "common/logging.hh"
#include "simd/kernels.hh"

namespace pargpu::simd
{

namespace
{

// Set by setActiveTier() and read-only while frames render;
// deterministic per run by construction. pargpu-lint: allow(global-state)
SimdTier g_tier = detectTier();

} // namespace

bool
hostHasSse()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("sse2") != 0;
#else
    return false;
#endif
}

bool
hostHasAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

SimdTier
detectTier()
{
    if (hostHasAvx2())
        return SimdTier::Avx2;
    if (hostHasSse())
        return SimdTier::Sse;
    return SimdTier::Scalar;
}

SimdTier
activeTier()
{
    return g_tier;
}

std::string
tierUnavailable(SimdTier t)
{
    if (t == SimdTier::Sse && !hostHasSse())
        return "PARGPU_SIMD=sse requested but the CPU lacks SSE2";
    if (t == SimdTier::Avx2 && !hostHasAvx2())
        return "PARGPU_SIMD=avx2 requested but the CPU lacks AVX2";
    return "";
}

void
setActiveTier(SimdTier t)
{
    const std::string why = tierUnavailable(t);
    if (!why.empty())
        fatal(why);
    g_tier = t;
}

const char *
tierName(SimdTier t)
{
    switch (t) {
    case SimdTier::Scalar: return "scalar";
    case SimdTier::Sse: return "sse";
    case SimdTier::Avx2: return "avx2";
    }
    return "unknown";
}

int
tierLanes(SimdTier t)
{
    switch (t) {
    case SimdTier::Sse: return 4;
    case SimdTier::Avx2: return 8;
    case SimdTier::Scalar: break;
    }
    return 1;
}

const KernelOps &
activeKernels()
{
    // Off x86 the host reports neither feature, so the active tier is
    // always scalar and only the scalar table is built.
#if defined(__x86_64__) || defined(__i386__)
    switch (g_tier) {
    case SimdTier::Sse: return sseKernels();
    case SimdTier::Avx2: return avx2Kernels();
    case SimdTier::Scalar: break;
    }
#endif
    return scalarKernels();
}

} // namespace pargpu::simd
