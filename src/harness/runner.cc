#include "harness/runner.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <variant>

#include "common/logging.hh"

namespace pargpu
{

std::span<const RunConfigField>
runConfigFields()
{
    // name, member, min, max, error, doc, serve_only
    static constexpr RunConfigField kFields[] = {
        {"threshold", &RunConfig::threshold, 0, 1, ConfigError::BadThreshold,
         "unified AF-SSIM threshold"},
        // 256x is a 4 MiB texture L1 and a 32 MiB LLC (the paper's
        // largest, Fig. 21, is 4x).
        {"tc_scale", &RunConfig::tc_scale, 1, 256, ConfigError::BadTcScale,
         "texture-cache capacity multiplier"},
        {"llc_scale", &RunConfig::llc_scale, 1, 256, ConfigError::BadLlcScale,
         "LLC capacity multiplier"},
        {"max_aniso", &RunConfig::max_aniso, 1, 64, ConfigError::BadMaxAniso,
         "maximum anisotropy"},
        {"keep_images", &RunConfig::keep_images, 0, 0, std::nullopt,
         "keep the rendered frames; false renders no colors, same metrics",
         true},
        {"table_entries", &RunConfig::table_entries, 0, 4096,
         ConfigError::BadTableEntries, "PATU hash-table entries"},
        {"threads", &RunConfig::threads, 0, 4096, ConfigError::BadThreads,
         "frames rendered at once (also the pool size)"},
        {"tile_parallel", &RunConfig::tile_parallel, 0, 0, std::nullopt,
         "accepted, no effect (every frame's tiles take idle pool threads)"},
        {"clusters", &RunConfig::clusters, 0, 64, ConfigError::BadClusters,
         "shader clusters"},
        {"scenario", &RunConfig::scenario, 0, 0, ConfigError::BadScenario,
         "filter mode (docs/FILTERING.md)"},
    };
    return kFields;
}

const RunConfigField *
findRunConfigField(std::string_view name)
{
    for (const RunConfigField &f : runConfigFields())
        if (name == f.name)
            return &f;
    return nullptr;
}

std::string
runFlagName(const RunConfigField &field)
{
    std::string flag = std::string("--run-") + field.name;
    std::replace(flag.begin(), flag.end(), '_', '-');
    return flag;
}

std::string
fieldRangeText(const RunConfigField &field)
{
    if (field.kind() == FieldKind::Scenario)
        return "one of the registered filter modes";
    if (field.kind() == FieldKind::Bool)
        return "true or false";
    const char *kind =
        field.kind() == FieldKind::Pow2 ? "a power of two " : "";
    // min is a table constant. pargpu-lint: allow(float-eq)
    const bool defaulted = field.min == 0.0 && field.kind() == FieldKind::Int;
    char range[64];
    std::snprintf(range, sizeof range, "%sin [%g, %g]%s", kind, field.min,
                  field.max, defaulted ? " (0 = default)" : "");
    return range;
}

const char *
configErrorMessage(ConfigError error)
{
    // Built once from the table; the texts live as long as the process.
    static const std::map<ConfigError, std::string> kTexts = [] {
        std::map<ConfigError, std::string> texts;
        for (const RunConfigField &f : runConfigFields())
            if (f.error)
                texts[*f.error] = runFlagName(f).substr(6) + " must be " +
                    fieldRangeText(f);
        return texts;
    }();
    const auto it = kTexts.find(error);
    return it == kTexts.end() ? "invalid RunConfig" : it->second.c_str();
}

std::vector<ConfigError>
RunConfig::validate() const
{
    const std::span<const ScenarioDesc> modes = scenarioRegistry();
    std::vector<ConfigError> errors;
    for (const RunConfigField &f : runConfigFields()) {
        const bool legal = std::visit(
            detail::Overloaded{
                [&](unsigned RunConfig::*m) {
                    return std::has_single_bit(this->*m) &&
                        this->*m >= f.min && this->*m <= f.max;
                },
                [](bool RunConfig::*) { return true; },
                [&](DesignScenario RunConfig::*m) {
                    return std::any_of(modes.begin(), modes.end(),
                                       [&](const ScenarioDesc &d) {
                                           return d.id == this->*m;
                                       });
                },
                // Float and int; NaN fails both comparisons.
                [&](auto m) {
                    return this->*m >= f.min && this->*m <= f.max;
                }},
            f.member);
        if (!legal)
            errors.push_back(*f.error);
    }
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
