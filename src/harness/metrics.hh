/**
 * @file
 * Structured metrics export: the versioned machine-readable result format
 * every bench and the pargpu_harness CLI emit, and that
 * tools/pargpu_report.py consumes to diff two runs.
 *
 * A metrics document (JSON) contains:
 *   - "schema" / "schema_version": format identification,
 *   - "run": the workload + RunConfig that produced the numbers,
 *   - "aggregate": run-level aggregates (avg cycles, energy, power,
 *     optional MSSIM against a reference run),
 *   - "frames": one object per frame with every FrameStats field,
 *   - "registry": runRegistry()'s per-stage counters, scalars and
 *     histograms (names documented in docs/METRICS.md).
 *
 * The CSV form is one row per frame with the same FrameStats columns,
 * for spreadsheet-style consumption.
 */

#ifndef PARGPU_HARNESS_METRICS_HH
#define PARGPU_HARNESS_METRICS_HH

#include <cstdint>
#include <span>
#include <string>

#include "common/json.hh"
#include "common/stats.hh"
#include "harness/runner.hh"

namespace pargpu
{

/** Version of the metrics-JSON/CSV schema emitted by this build. */
inline constexpr int kMetricsSchemaVersion = 1;

/** Schema identifier stored in the "schema" field. */
inline constexpr const char *kMetricsSchemaName = "pargpu-metrics";

/** Identifies the run a metrics document describes. */
struct RunMetadata
{
    std::string tool;     ///< Producing binary ("pargpu_harness", "fig19").
    std::string workload; ///< Workload label, e.g. "HL2-640x512".
    int width = 0;
    int height = 0;
    int frames = 0;
};

/** One FrameStats counter: where each export reports it. */
struct FrameCounter
{
    const char *column;   ///< CSV column and frames-object key.
    const char *registry; ///< Registry counter, or nullptr for none.
    std::uint64_t FrameStats::*member;
};

/**
 * Every FrameStats counter, in CSV column order: the one list the
 * frames objects, the CSV rows and runRegistry() loop over.
 * filter_policy (a mode code, not a count) and the cluster shards are
 * reported by hand.
 */
std::span<const FrameCounter> frameCounters();

/**
 * The per-stage stat registry of a finished run: the aggregated
 * FrameStats mapped onto hierarchical dotted names (raster, early-Z,
 * shading, texunit, PATU, memory, energy) plus per-frame histograms.
 * Every name is documented in docs/METRICS.md.
 *
 * @param mssim  Mean MSSIM against a reference run, or < 0 if none.
 */
StatRegistry runRegistry(const RunResult &run, double mssim = -1.0);

/**
 * Serialize a run as a metrics document (see file header for the layout).
 *
 * @param mssim  Mean MSSIM against a reference run, or < 0 to omit.
 */
Json metricsJson(const RunMetadata &meta, const RunConfig &config,
                 const RunResult &run, double mssim = -1.0);

/** Write metricsJson() to @p path. @return false on I/O failure. */
bool writeMetricsJson(const std::string &path, const RunMetadata &meta,
                      const RunConfig &config, const RunResult &run,
                      double mssim = -1.0);

/**
 * Write the per-frame CSV form (header row + one row per frame) to
 * @p path. @return false on I/O failure.
 */
bool writeMetricsCsv(const std::string &path, const RunMetadata &meta,
                     const RunConfig &config, const RunResult &run);

} // namespace pargpu

#endif // PARGPU_HARNESS_METRICS_HH
