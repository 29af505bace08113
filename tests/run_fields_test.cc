/**
 * @file
 * The run-condition table (runConfigFields()) and its boundaries: every
 * row's edge values through both strict parsers (serve's JSON config
 * and the harness's `--run-*` text) and RunConfig::validate().
 *
 * boundaryCases() is the seed list of hostile and edge inputs per field;
 * a mutation fuzzer over serve frames can start from it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "harness/metrics.hh"
#include "harness/serve.hh"

using namespace pargpu;

namespace pargpu
{

/** Failure messages name a row, not its bytes. */
void
PrintTo(const RunConfigField &f, std::ostream *os)
{
    *os << f.name;
}

} // namespace pargpu

namespace
{

/** Where an input ends up. */
enum class Fate
{
    Ok,         ///< Parsed, and validate() passes.
    BadValue,   ///< The parser rejects it (InvalidRequest).
    OutOfRange, ///< It parses, and validate() rejects it.
};

/** One input for a field, on the wire and as flag text. */
struct BoundaryCase
{
    Json json;                       ///< The `config` member's value.
    Fate json_fate;
    std::optional<std::string> text; ///< The flag's value; none: no form.
    Fate text_fate = Fate::BadValue;
};

/** A number with the same fate on the wire and as flag text. */
BoundaryCase
numeric(double v, Fate fate)
{
    char text[32];
    std::snprintf(text, sizeof text, "%.17g", v);
    return {Json{v}, fate, std::string(text), fate};
}

/** The edge and hostile inputs of @p f, with their fates. */
std::vector<BoundaryCase>
boundaryCases(const RunConfigField &f)
{
    constexpr Fate kOk = Fate::Ok, kBad = Fate::BadValue,
                   kRange = Fate::OutOfRange;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    switch (f.kind()) {
    case FieldKind::Float:
        return {numeric(f.min - 1, kRange), numeric(f.min, kOk),
                numeric(f.max, kOk), numeric(f.max + 1, kRange),
                {Json{nan}, kRange, "nan", kRange},
                {Json{kInf}, kRange, "inf", kRange},
                {Json{-kInf}, kRange, "-inf", kRange},
                // Beyond float: infinity on the wire, too big as text.
                {Json{1e300}, kRange, "1e300", kBad},
                {Json{-1e300}, kRange, "-1e300", kBad},
                {Json{"0.5"}, kBad, std::nullopt},
                {Json{}, kBad, "abc", kBad}};
    case FieldKind::Pow2:
        return {numeric(0, kRange), numeric(1, kOk), numeric(2, kOk),
                numeric(3, kRange), numeric(f.max, kOk),
                numeric(f.max * 2, kRange), numeric(1 << 30, kRange),
                numeric((1 << 30) + 1, kRange), numeric(-1, kBad),
                numeric(1.5, kBad), numeric(1e30, kBad),
                // Past int on the wire; an unsigned flag takes it, and
                // validate() rejects it.
                {Json{2147483648.0}, kBad, "2147483648", kRange},
                {Json{true}, kBad, std::nullopt}};
    case FieldKind::Int:
        return {numeric(f.min - 1, kRange), numeric(f.min, kOk),
                numeric(f.max, kOk), numeric(f.max + 1, kRange),
                numeric(1.5, kBad), numeric(1e30, kBad),
                {Json{-kInf}, kBad, "-inf", kBad},
                {Json{"1"}, kBad, std::nullopt}};
    case FieldKind::Bool:
        return {{Json{true}, kOk, "true", kOk},
                {Json{false}, kOk, "false", kOk},
                {Json{1.0}, kBad, "1", kBad},
                {Json{"true"}, kBad, "yes", kBad}};
    case FieldKind::Scenario: {
        std::vector<BoundaryCase> cases;
        for (const ScenarioDesc &d : scenarioRegistry())
            cases.push_back({Json{d.name}, kOk, std::string(d.name), kOk});
        cases.push_back({Json{"PATU"}, kBad, "PATU", kBad});
        cases.push_back({Json{""}, kBad, "", kBad});
        cases.push_back({Json{4.0}, kBad, std::nullopt});
        return cases;
    }
    }
    return {};
}

/** True when @p message names @p f, by wire name or by flag spelling. */
bool
namesField(const std::string &message, const RunConfigField &f)
{
    const std::string flag = runFlagName(f).substr(6); // "tc-scale"
    return message.find(f.name) != std::string::npos ||
        message.find(flag) != std::string::npos;
}

/**
 * Where @p parsed and then validate() leave @p c, asserting that a
 * rejection is typed and names the field.
 */
Fate
fateOf(const Status &parsed, const RunConfig &c, const RunConfigField &f)
{
    if (!parsed.ok()) {
        EXPECT_EQ(parsed.code, StatusCode::InvalidRequest);
        EXPECT_TRUE(namesField(parsed.message, f)) << parsed.message;
        return Fate::BadValue;
    }
    const std::vector<ConfigError> errors = c.validate();
    if (errors.empty())
        return Fate::Ok;
    EXPECT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors.front(), f.error);
    EXPECT_TRUE(namesField(configErrorMessage(errors.front()), f))
        << configErrorMessage(errors.front());
    return Fate::OutOfRange;
}

class RunFieldBoundaryTest : public testing::TestWithParam<RunConfigField>
{
};

} // namespace

TEST_P(RunFieldBoundaryTest, ServeMemberIsAcceptedOrATypedRejection)
{
    const RunConfigField &f = GetParam();
    for (const BoundaryCase &bc : boundaryCases(f)) {
        SCOPED_TRACE(bc.json.dump());
        Json config = Json::object();
        config.set(f.name, bc.json);
        RunConfig c;
        EXPECT_EQ(fateOf(parseRunConfigJson(config, c), c, f), bc.json_fate);
    }
}

TEST_P(RunFieldBoundaryTest, FlagValueIsAcceptedOrATypedRejection)
{
    const RunConfigField &f = GetParam();
    if (f.serve_only)
        return; // No --run-* flag.
    for (const BoundaryCase &bc : boundaryCases(f)) {
        if (!bc.text)
            continue;
        SCOPED_TRACE(runFlagName(f) + " '" + *bc.text + "'");
        RunConfig c;
        EXPECT_EQ(fateOf(parseRunFlag(f, *bc.text, c), c, f), bc.text_fate);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, RunFieldBoundaryTest, testing::ValuesIn(runConfigFields().begin(),
                                      runConfigFields().end()),
    [](const testing::TestParamInfo<RunConfigField> &info) {
        return std::string(info.param.name);
    });

TEST(RunConfigFieldsTest, TheTableIsTheRunCondition)
{
    // Serve members; every one but keep_images is also a --run-* flag
    // and a metrics run key.
    std::set<std::string> names;
    for (const RunConfigField &f : runConfigFields())
        names.insert(f.name);
    EXPECT_EQ(names, (std::set<std::string>{
                         "scenario", "threshold", "tc_scale", "llc_scale",
                         "max_aniso", "keep_images", "table_entries",
                         "threads", "tile_parallel", "clusters"}));
    EXPECT_EQ(runFlagName(*findRunConfigField("tc_scale")),
              "--run-tc-scale");
    EXPECT_EQ(findRunConfigField("tc-scale"), nullptr);

    // Each ConfigError belongs to exactly one row, in enum order.
    std::vector<ConfigError> errors;
    for (const RunConfigField &f : runConfigFields())
        if (f.error)
            errors.push_back(*f.error);
    EXPECT_EQ(errors, (std::vector<ConfigError>{
                          ConfigError::BadThreshold, ConfigError::BadTcScale,
                          ConfigError::BadLlcScale, ConfigError::BadMaxAniso,
                          ConfigError::BadTableEntries,
                          ConfigError::BadThreads, ConfigError::BadClusters,
                          ConfigError::BadScenario}));
}

TEST(RunConfigFieldsTest, MetricsRunBlockWritesEveryFlagField)
{
    const Json run =
        metricsJson(RunMetadata{}, RunConfig{}, RunResult{})["run"];
    for (const RunConfigField &f : runConfigFields())
        EXPECT_EQ(run.has(f.name), !f.serve_only) << f.name;
    // The types are the parent's: a float widened, an unsigned whole.
    EXPECT_EQ(run["threshold"].number(), static_cast<double>(0.4f));
    EXPECT_EQ(run["tc_scale"].dump(), "1");
    EXPECT_EQ(run["scenario"].str(), "baseline");
    EXPECT_EQ(run["tile_parallel"].dump(), "false");
}

TEST(RunConfigFieldsTest, UnregisteredScenarioIsBadScenario)
{
    RunConfig c;
    c.scenario = static_cast<DesignScenario>(99);
    EXPECT_EQ(c.validate(),
              std::vector<ConfigError>{ConfigError::BadScenario});
}
