/**
 * @file
 * pargpu public API — metrics schema and exporters.
 *
 * Re-exports the versioned metrics document (metricsJson,
 * writeMetricsJson/writeMetricsCsv, runRegistry, RunMetadata,
 * kMetricsSchemaVersion) described in docs/METRICS.md.
 */

#ifndef PARGPU_METRICS_HH
#define PARGPU_METRICS_HH

#include "harness/metrics.hh"

#endif // PARGPU_METRICS_HH
