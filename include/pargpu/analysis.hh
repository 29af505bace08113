/**
 * @file
 * pargpu public API — PATU decision analysis.
 *
 * Re-exports the AF-SSIM predictors (Eqs. 6/10), the texel-address hash
 * table, the PATU decision unit, and the area/energy overhead model
 * (Section VI).
 */

#ifndef PARGPU_ANALYSIS_HH
#define PARGPU_ANALYSIS_HH

#include "core/afssim.hh"
#include "core/hashtable.hh"
#include "core/overhead.hh"
#include "core/patu.hh"

#endif // PARGPU_ANALYSIS_HH
