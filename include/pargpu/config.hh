/**
 * @file
 * pargpu public API — experiment configuration and execution.
 *
 * Re-exports the experiment condition (RunConfig + RunConfig::validate()),
 * the modeled machine (GpuConfig, Table I defaults), the design scenarios
 * (DesignScenario), and the RunResult aggregation. Runs execute through
 * a Session (pargpu/session.hh).
 */

#ifndef PARGPU_CONFIG_HH
#define PARGPU_CONFIG_HH

#include "harness/runner.hh"
#include "sim/config.hh"

#endif // PARGPU_CONFIG_HH
