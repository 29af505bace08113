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

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
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
 * configErrorMessage(). Each value belongs to one runConfigFields() row.
 */
enum class ConfigError
{
    BadThreshold,    ///< threshold out of range.
    BadTcScale,      ///< tc_scale not a power of two in range.
    BadLlcScale,     ///< llc_scale not a power of two in range.
    BadMaxAniso,     ///< max_aniso out of range.
    BadTableEntries, ///< table_entries out of range.
    BadThreads,      ///< threads out of range.
    BadClusters,     ///< clusters out of range.
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
    bool keep_images = true;  ///< Keep the rendered frames (for SSIM).
                              ///< False renders no colors at all
                              ///< (GpuConfig::colors); every metric is
                              ///< the same.
    int table_entries = 0;    ///< PATU hash-table entries (0 = default).
    int threads = 0;          ///< Cap on the frames Session::run() renders
                              ///< at once: 0 = ThreadPool::defaultThreads(),
                              ///< 1 = serial. sweep() and submitted jobs
                              ///< ignore it.
    bool tile_parallel = false; ///< Accepted, no effect: every frame's
                                ///< tile stream takes idle pool threads
                                ///< (GpuConfig::tile_parallel).
    int clusters = 0;         ///< Shader clusters (0 = Table I default).

    /**
     * Check every field against its legal range and return the list of
     * violations (empty = valid). Session::run()/sweep() fatal() on any
     * violation instead of silently clamping or crashing deep inside
     * cache construction; submit()/submitSweep() return them as a typed
     * Status (validateRunConfig()), and interactive drivers (the
     * harness CLI) report all violations and exit cleanly.
     *
     * The ranges are the rows of runConfigFields() (also printed by
     * `pargpu_harness --help`).
     */
    std::vector<ConfigError> validate() const;
};

/** What a run-condition field holds, and so how it parses and checks. */
enum class FieldKind
{
    Float,    ///< float in [min, max] (NaN is outside).
    Pow2,     ///< unsigned power of two (the cache sets need one)
              ///< in [min, max].
    Int,      ///< int in [min, max]; a min of 0 means "the default".
    Bool,     ///< always valid.
    Scenario, ///< one of scenarioRegistry().
};

/**
 * One row of the run-condition table. The harness `--run-*` flags and
 * their help, serve's `config` members, the metrics `run` block,
 * RunConfig::validate() and configErrorMessage() all loop over these
 * rows; none of them names a field.
 */
struct RunConfigField
{
    const char *name; ///< Serve member and metrics key.
    /** The member; its alternative index is the FieldKind. */
    std::variant<float RunConfig::*, unsigned RunConfig::*,
                 int RunConfig::*, bool RunConfig::*,
                 DesignScenario RunConfig::*>
        member;
    double min, max; ///< Legal range of a Float, Pow2 or Int field.
    std::optional<ConfigError> error; ///< None for a Bool field.
    const char *doc; ///< Its `--help` line.
    bool serve_only = false; ///< No --run-* flag and no metrics key.

    FieldKind kind() const { return FieldKind(member.index()); }
};

/** The run-condition table, in validate()'s report order. */
std::span<const RunConfigField> runConfigFields();

/** The row named @p name, or nullptr. */
const RunConfigField *findRunConfigField(std::string_view name);

/** The harness flag of @p field: "--run-tc-scale" for "tc_scale". */
std::string runFlagName(const RunConfigField &field);

/**
 * The legal values of @p field: "in [0, 1]", "a power of two in
 * [1, 256]".
 */
std::string fieldRangeText(const RunConfigField &field);

namespace detail
{

/** Lambdas overloaded by parameter type, for visiting a field member. */
template <typename... F>
struct Overloaded : F...
{
    using F::operator()...;
};

} // namespace detail

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
