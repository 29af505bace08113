/**
 * @file
 * pargpu public API — textures and filtering.
 *
 * Re-exports TextureMap (simulated TexelLayout + host TexelStorage, which
 * follows the format: Morton for RGBA8, row-major for BC1), mip-pyramid
 * construction, BC1 compression, the procedural texture generators,
 * TextureSampler with its trilinear/anisotropic filters, and the
 * stochastic texel selection of the STF filter modes
 * (docs/FILTERING.md; the modes themselves are DesignScenario values,
 * pargpu/config.hh).
 */

#ifndef PARGPU_TEXTURE_HH
#define PARGPU_TEXTURE_HH

#include "texture/compress.hh"
#include "texture/filter_policy.hh"
#include "texture/mipmap.hh"
#include "texture/procedural.hh"
#include "texture/sampler.hh"
#include "texture/texture.hh"

#endif // PARGPU_TEXTURE_HH
