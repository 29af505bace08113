/**
 * @file
 * pargpu public API — textures and filtering.
 *
 * Re-exports TextureMap (simulated TexelLayout + host TexelStorage),
 * mip-pyramid construction, BC1 compression, the procedural texture
 * generators, TextureSampler with its trilinear/anisotropic filters, and
 * the FilterPolicy family (docs/FILTERING.md).
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
