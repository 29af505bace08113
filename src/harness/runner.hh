/**
 * @file
 * Experiment runner: the run condition (RunConfig), its validation, and
 * the RunResult aggregation every bench and example consumes.
 *
 * Frames of a trace are independent by construction (the simulator resets
 * cache and DRAM state per frame), so every Session surface
 * (harness/session.hh) schedules work frame by frame on the shared
 * thread pool: one task per (condition, frame) pair, each rendered on a
 * fresh GpuSimulator into its own slot, and each condition folded
 * serially in frame order once its last frame lands. Every schedule is
 * bit-identical to the serial one.
 */

#ifndef PARGPU_HARNESS_RUNNER_HH
#define PARGPU_HARNESS_RUNNER_HH

#include <vector>

#include "power/energy.hh"
#include "quality/ssim.hh"
#include "scenes/scenes.hh"
#include "sim/pipeline.hh"

namespace pargpu
{

/**
 * Typed reason a RunConfig field is invalid, as reported by
 * RunConfig::validate(). Callers that want a human-readable message use
 * configErrorMessage().
 */
enum class ConfigError
{
    BadThreshold,    ///< threshold outside [0, 1].
    BadTcScale,      ///< tc_scale zero or not a power of two.
    BadLlcScale,     ///< llc_scale zero or not a power of two.
    BadMaxAniso,     ///< max_aniso outside [1, 64].
    BadTableEntries, ///< table_entries negative or above 4096.
    BadThreads,      ///< threads negative or above 4096.
    BadClusters,     ///< clusters negative or above 64.
    BadScenario,     ///< scenario not in scenarioRegistry().
};

/** Human-readable description of @p error (includes the legal range). */
const char *configErrorMessage(ConfigError error);

/** One experimental condition. */
struct RunConfig
{
    /** Filter mode: a paper scenario or an STF/FAS mode. */
    DesignScenario scenario = DesignScenario::Baseline;
    float threshold = 0.4f;   ///< Unified AF-SSIM threshold.
    unsigned tc_scale = 1;    ///< Texture-cache capacity multiplier.
    unsigned llc_scale = 1;   ///< LLC capacity multiplier.
    int max_aniso = 16;
    bool keep_images = true;  ///< Retain rendered frames (for SSIM).
    int table_entries = 0;    ///< PATU hash-table entries (0 = default).
    int threads = 0;          ///< Cap on the frames Session::run() renders
                              ///< at once: 0 = ThreadPool::defaultThreads(),
                              ///< 1 = serial. Submitted jobs ignore it.
    bool tile_parallel = false; ///< Accepted, no effect: every frame's
                                ///< tile stream takes idle pool threads
                                ///< (GpuConfig::tile_parallel).
    int clusters = 0;         ///< Shader clusters (0 = Table I default).

    /**
     * Check every field against its legal range and return the list of
     * violations (empty = valid). Session::run()/sweep() call this and
     * fatal() on the first violation instead of silently clamping or
     * crashing deep inside cache construction; the keyed Session
     * surfaces return it as a typed Status, and interactive drivers (the
     * harness CLI) report all violations and exit cleanly.
     *
     * Ranges: threshold in [0,1]; tc_scale/llc_scale a power of two >= 1
     * (the cache model requires a power-of-two set count); max_aniso in
     * [1,64]; table_entries in [0,4096] (0 = scenario default);
     * threads in [0,4096] (0 = ThreadPool::defaultThreads()); clusters in
     * [0,64] (0 = Table I default); scenario one of scenarioRegistry().
     */
    std::vector<ConfigError> validate() const;
};

/** Aggregated results of rendering all frames of a trace. */
struct RunResult
{
    std::vector<FrameStats> frames;
    std::vector<Image> images;     ///< Empty if keep_images was false.
    double avg_cycles = 0.0;       ///< Mean frame time (cycles).
    double total_energy_nj = 0.0;  ///< Sum over frames (GPU + DRAM).
    double avg_power_w = 0.0;      ///< Mean of per-frame average power.

    /** Mean MSSIM of this run's frames against @p reference frames. */
    double mssimAgainst(const std::vector<Image> &reference) const;
};

/** Build the GpuConfig for a run condition. */
GpuConfig makeGpuConfig(const RunConfig &config);

/** Frame times of a run, for the replay/vsync model. */
std::vector<Cycle> frameCycles(const RunResult &run);

/**
 * Sum a FrameStats field across frames (convenience for benches).
 */
template <typename T>
double
sumOver(const std::vector<FrameStats> &frames, T FrameStats::*field)
{
    double acc = 0.0;
    for (const FrameStats &f : frames)
        acc += static_cast<double>(f.*field);
    return acc;
}

} // namespace pargpu

#endif // PARGPU_HARNESS_RUNNER_HH
