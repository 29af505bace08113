/**
 * @file
 * pargpu public API — SIMD kernel layer.
 *
 * Re-exports the kernel table with its runtime instruction-set
 * dispatch, and the QuadFilter texel-filter path, for kernel benches
 * and bit-identity tests.
 */

#ifndef PARGPU_SIMD_HH
#define PARGPU_SIMD_HH

#include "simd/dispatch.hh"
#include "simd/filter.hh"
#include "simd/kernels.hh"

#endif // PARGPU_SIMD_HH
