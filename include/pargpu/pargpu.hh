/**
 * @file
 * pargpu public API — the single entry point for applications.
 *
 * Everything an embedding program needs to reproduce the paper's
 * experiments: build a game workload (GameTrace), describe an experimental
 * condition (RunConfig, validated via RunConfig::validate()), render it
 * through a Session (load assets once, run()/sweep()/submit() many —
 * pargpu/session.hh), and export the run as a versioned metrics document
 * (pargpu/metrics.hh).
 *
 * Out-of-repo consumers and the in-repo examples/ and bench/ trees build
 * exclusively against `pargpu/...` headers; the `src/...` spelling of the
 * internals is reserved for the library itself (enforced by the
 * internal-include lint rule). Topic headers narrow the surface when the
 * umbrella is too broad: pargpu/session.hh, pargpu/config.hh,
 * pargpu/metrics.hh, pargpu/scenes.hh, pargpu/texture.hh, pargpu/quality.hh,
 * pargpu/replay.hh, pargpu/sim.hh, pargpu/analysis.hh, pargpu/mem.hh,
 * pargpu/power.hh, pargpu/trace.hh, pargpu/threading.hh,
 * pargpu/random.hh. See docs/API.md.
 */

#ifndef PARGPU_PARGPU_HH
#define PARGPU_PARGPU_HH

#include "pargpu/config.hh"
#include "pargpu/metrics.hh"
#include "pargpu/scenes.hh"
#include "pargpu/session.hh"
#include "pargpu/texture.hh"

#endif // PARGPU_PARGPU_HH
