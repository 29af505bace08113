/**
 * @file
 * pargpu public API — experiment configuration and execution.
 *
 * Re-exports the experiment condition (RunConfig + RunConfig::validate()),
 * the modeled machine (GpuConfig, Table I defaults), the design scenarios
 * (DesignScenario), and the RunResult aggregation. Runs execute through
 * a Session (pargpu/session.hh). RunConfig::tile_parallel and
 * GpuConfig::tile_parallel are accepted and have no effect: idle pool
 * threads join every frame's tile streams whatever they say.
 */

#ifndef PARGPU_CONFIG_HH
#define PARGPU_CONFIG_HH

#include "harness/runner.hh"
#include "sim/config.hh"

#endif // PARGPU_CONFIG_HH
