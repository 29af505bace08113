/**
 * @file
 * pargpu public API — image quality metrics.
 *
 * Re-exports the SSIM/MSSIM implementation used for the paper's quality
 * axis.
 */

#ifndef PARGPU_QUALITY_HH
#define PARGPU_QUALITY_HH

#include "quality/ssim.hh"

#endif // PARGPU_QUALITY_HH
