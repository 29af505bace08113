#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <span>
#include <string>

#include "common/contract.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"
#include "common/tracing.hh"
#include "harness/session.hh"

namespace pargpu
{

namespace
{

bool
isPow2(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

const char *
configErrorMessage(ConfigError error)
{
    switch (error) {
    case ConfigError::BadThreshold:
        return "threshold must be in [0, 1]";
    case ConfigError::BadTcScale:
        return "tc-scale must be a power of two >= 1";
    case ConfigError::BadLlcScale:
        return "llc-scale must be a power of two >= 1";
    case ConfigError::BadMaxAniso:
        return "max-aniso must be in [1, 64]";
    case ConfigError::BadTableEntries:
        return "table-entries must be in [0, 4096] (0 = default)";
    case ConfigError::BadThreads:
        return "threads must be in [0, 4096] (0 = default)";
    case ConfigError::BadClusters:
        return "clusters must be in [0, 64] (0 = default)";
    case ConfigError::BadScenario:
        return "scenario must be one of the registered filter modes";
    }
    return "invalid RunConfig";
}

std::vector<ConfigError>
RunConfig::validate() const
{
    std::vector<ConfigError> errors;
    if (!(threshold >= 0.0f && threshold <= 1.0f))
        errors.push_back(ConfigError::BadThreshold);
    if (!isPow2(tc_scale))
        errors.push_back(ConfigError::BadTcScale);
    if (!isPow2(llc_scale))
        errors.push_back(ConfigError::BadLlcScale);
    if (max_aniso < 1 || max_aniso > 64)
        errors.push_back(ConfigError::BadMaxAniso);
    if (table_entries < 0 || table_entries > 4096)
        errors.push_back(ConfigError::BadTableEntries);
    if (threads < 0 || threads > 4096)
        errors.push_back(ConfigError::BadThreads);
    if (clusters < 0 || clusters > 64)
        errors.push_back(ConfigError::BadClusters);
    const std::span<const ScenarioDesc> modes = scenarioRegistry();
    if (std::none_of(modes.begin(), modes.end(),
                     [this](const ScenarioDesc &d) {
                         return d.id == scenario;
                     }))
        errors.push_back(ConfigError::BadScenario);
    return errors;
}

double
RunResult::mssimAgainst(const std::vector<Image> &reference) const
{
    if (images.empty() || images.size() != reference.size())
        fatal("mssimAgainst: image sets unavailable or mismatched");
    // Frames in order, each scored by one pooled mssim(): one frame's
    // scratch at a time, and the sum runs in frame order.
    double acc = 0.0;
    for (std::size_t i = 0; i < images.size(); ++i)
        acc += mssim(reference[i], images[i]);
    return acc / static_cast<double>(images.size());
}

GpuConfig
makeGpuConfig(const RunConfig &config)
{
    GpuConfig g;
    g.max_aniso = config.max_aniso;
    g.mem.tc_scale = config.tc_scale;
    g.mem.llc_scale = config.llc_scale;
    g.patu.scenario = config.scenario;
    g.patu.threshold = config.threshold;
    g.patu.max_aniso = config.max_aniso;
    if (config.table_entries > 0)
        g.patu.table_entries = config.table_entries;
    if (config.clusters > 0)
        g.clusters = static_cast<unsigned>(config.clusters);
    g.tile_parallel = config.tile_parallel;
    return g;
}

namespace detail
{

namespace
{

/** fatal() on the first invalid condition, before any frame renders. */
void
validateOrDie(const std::vector<RunConfig> &configs, const char *what)
{
    for (const RunConfig &c : configs) {
        const std::vector<ConfigError> errors = c.validate();
        if (!errors.empty())
            fatal(std::string(what) + configErrorMessage(errors.front()));
    }
}

/**
 * The frame engine of run() and sweep(): one pool task per (condition,
 * frame) pair, claimed condition-major in submission order with chunk
 * 1. Each frame renders into its own slot; the task that lands a
 * condition's last frame folds that condition and frees its outputs.
 * No result depends on the thread count or on which task finished
 * last.
 */
std::vector<RunResult>
renderRuns(const GameTrace &trace, const std::vector<RunConfig> &configs,
           unsigned threads)
{
    const std::size_t n = trace.cameras.size();
    // The span name is part of the documented trace schema (METRICS.md).
    PARGPU_TRACE_SCOPE_F("harness", "runTrace", n);
    std::vector<RunResult> results(configs.size());
    if (n == 0)
        return results;
    std::vector<std::vector<FrameOutput>> outs(configs.size());
    std::vector<std::atomic<std::size_t>> pending(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        outs[c].resize(n);
        pending[c] = n;
    }
    ThreadPool::run(configs.size() * n, 1, [&](std::size_t task) {
        const std::size_t c = task / n;
        const std::size_t f = task % n;
        outs[c][f] = renderFrame(trace, configs[c], f);
        // The last frame's task sees every other frame's slot.
        if (--pending[c] == 0)
            results[c] =
                foldFrames(std::move(outs[c]), configs[c].keep_images);
    }, threads);
    return results;
}

} // namespace

FrameOutput
renderFrame(const GameTrace &trace, const RunConfig &config, std::size_t f)
{
    PARGPU_TRACE_SCOPE_F("harness", "renderFrame", f);
    // A fresh simulator per frame: the simulator resets cache and DRAM
    // state per frame, so a frame's output does not depend on what its
    // simulator rendered before (determinism_test pins this down).
    GpuSimulator sim(makeGpuConfig(config));
    return sim.renderFrame(trace.scene, trace.cameras[f], trace.width,
                           trace.height);
}

RunResult
foldFrames(std::vector<FrameOutput> outs, bool keep_images)
{
    PARGPU_TRACE_SCOPE("harness", "aggregate");
    const std::size_t n = outs.size();
    RunResult result;
    result.frames.reserve(n);
    if (keep_images)
        result.images.reserve(n);
    double cycles = 0.0, power = 0.0;
    for (FrameOutput &out : outs) {
        EnergyBreakdown e = computeEnergy(out.stats);
        result.total_energy_nj += e.total_nj();
        power += averagePowerW(e, out.stats);
        cycles += static_cast<double>(out.stats.total_cycles);
        result.frames.push_back(out.stats);
        if (keep_images)
            result.images.push_back(std::move(out.image));
    }
    if (n > 0) {
        result.avg_cycles = cycles / static_cast<double>(n);
        result.avg_power_w = power / static_cast<double>(n);
    }
    PARGPU_INVARIANT(result.avg_cycles >= 0.0 &&
                         result.total_energy_nj >= 0.0 &&
                         result.avg_power_w >= 0.0,
                     "negative aggregate: cycles=", result.avg_cycles,
                     " energy=", result.total_energy_nj,
                     " power=", result.avg_power_w);
    return result;
}

RunResult
renderTrace(const GameTrace &trace, const RunConfig &config)
{
    validateOrDie({config}, "invalid RunConfig: ");
    std::vector<RunResult> results =
        renderRuns(trace, {config}, static_cast<unsigned>(config.threads));
    return std::move(results.front());
}

std::vector<RunResult>
renderSweep(const GameTrace &trace, const std::vector<RunConfig> &configs,
            int threads)
{
    validateOrDie(configs, "invalid RunConfig in sweep: ");
    return renderRuns(trace, configs,
                      threads > 0 ? static_cast<unsigned>(threads) : 0);
}

} // namespace detail

std::vector<Cycle>
frameCycles(const RunResult &run)
{
    std::vector<Cycle> c;
    c.reserve(run.frames.size());
    for (const FrameStats &f : run.frames)
        c.push_back(f.total_cycles);
    return c;
}

} // namespace pargpu
