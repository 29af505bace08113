/**
 * @file
 * pargpu public API — SoA filtering kernel layer.
 *
 * Re-exports the batch structs, the kernel table with its runtime
 * instruction-set dispatch, and the QuadFilter front-end for kernel
 * benches and bit-identity tests.
 */

#ifndef PARGPU_SIMD_HH
#define PARGPU_SIMD_HH

#include "simd/batch.hh"
#include "simd/dispatch.hh"
#include "simd/filter.hh"
#include "simd/kernels.hh"

#endif // PARGPU_SIMD_HH
