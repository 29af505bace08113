/**
 * @file
 * pargpu_harness: the observability-first simulator driver. Renders any
 * game workload under any filter mode (a design scenario or an STF/FAS
 * mode, docs/FILTERING.md) and exports the run as a versioned metrics
 * document (JSON/CSV, see docs/METRICS.md) and an optional
 * chrome://tracing profile.
 *
 * Flags come in three families (see docs/REPRODUCING.md for the full
 * mapping):
 *   --run-*      the experimental condition (workload, scenario, knobs)
 *   --metrics-*  structured metric exports
 *   --trace-*    chrome://tracing profile capture
 *
 * `pargpu_harness --help` lists every flag (usage() below). The PARGPU_*
 * environment applies after the flags parse (parseEnvironment()).
 *
 * Numeric values must parse whole and fit their field; anything else
 * (`abc`, `32x`) exits 2 with "invalid value '<v>' for <flag>". The
 * viewport and frame count must be positive and within the trace limits
 * (withinTraceBudget() in trace/trace.hh), or the harness exits 2.
 *
 * --run-reference renders a second run under the given mode and
 * reports MSSIM of the primary run against it (the paper's quality axis).
 * --trace-out enables the runtime trace collector around the run and
 * writes a JSON trace loadable in chrome://tracing / Perfetto.
 */

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "common/threadpool.hh"
#include "common/tracing.hh"
#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "harness/serve.hh"
#include "trace/trace.hh"

using namespace pargpu;

namespace
{

struct Options
{
    GameId game = GameId::HL2;
    RunConfig run;
    int width = 640;
    int height = 512;
    int frames = 2;
    bool quiet = false;
    bool have_reference = false;
    DesignScenario reference = DesignScenario::Baseline;
    std::string metrics_json;
    std::string metrics_csv;
    std::string trace_out;
};

GameId
parseGame(const std::string &v)
{
    GameId id;
    if (parseGameName(v, id))
        return id;
    std::fprintf(stderr, "unknown game '%s'\n", v.c_str());
    std::exit(2);
}

DesignScenario
parseScenario(const std::string &v)
{
    DesignScenario s;
    if (parseScenarioName(v, s))
        return s;
    std::fprintf(stderr, "unknown scenario '%s'\n", v.c_str());
    std::exit(2);
}

void
usage()
{
    std::string scenarios;
    for (const ScenarioDesc &d : scenarioRegistry()) {
        if (!scenarios.empty())
            scenarios += "|";
        scenarios += d.name;
    }
    std::printf(
        "pargpu_harness: render a workload and export structured "
        "metrics\n"
        "run condition:\n"
        "  --run-game hl2|doom3|grid|nfs|stal|ut3|wolf|rbench\n"
        "  --run-scenario %s\n"
        "  --run-threshold T   unified AF-SSIM threshold (default 0.4)\n"
        "  --run-width W --run-height H --run-frames N      viewport\n"
        "  --run-tc-scale S --run-llc-scale S               cache scaling\n"
        "  --run-max-aniso A --run-table-entries E          PATU knobs\n"
        "  --run-threads N     frame-level parallelism (0 = default)\n"
        "  --run-tile-parallel accepted, no effect (every frame's tiles\n"
        "                      already take idle pool threads)\n"
        "  --run-clusters C    shader clusters (0 = Table I default)\n"
        "  --run-reference S   also render S, report MSSIM against it\n"
        "exports:\n"
        "  --metrics-json F    write the metrics document (schema v%d)\n"
        "  --metrics-csv F     write per-frame stats as CSV\n"
        "  --trace-out F       write a chrome://tracing JSON profile\n"
        "  --quiet             suppress the human-readable summary\n"
        "See docs/METRICS.md for the schema and every metric name.\n",
        scenarios.c_str(), kMetricsSchemaVersion);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // The whole value must parse and fit the field's type;
        // RunConfig::validate() checks the legal range afterwards.
        auto number = [&](auto &field) {
            const std::string v = need();
            const char *end = v.data() + v.size();
            const std::from_chars_result r =
                std::from_chars(v.data(), end, field);
            if (r.ec != std::errc() || r.ptr != end) {
                std::fprintf(stderr, "invalid value '%s' for %s\n",
                             v.c_str(), a.c_str());
                std::exit(2);
            }
        };
        if (a == "--run-game") {
            o.game = parseGame(need());
        } else if (a == "--run-scenario") {
            o.run.scenario = parseScenario(need());
        } else if (a == "--run-threshold") {
            number(o.run.threshold);
        } else if (a == "--run-width") {
            number(o.width);
        } else if (a == "--run-height") {
            number(o.height);
        } else if (a == "--run-frames") {
            number(o.frames);
        } else if (a == "--run-tc-scale") {
            number(o.run.tc_scale);
        } else if (a == "--run-llc-scale") {
            number(o.run.llc_scale);
        } else if (a == "--run-max-aniso") {
            number(o.run.max_aniso);
        } else if (a == "--run-table-entries") {
            number(o.run.table_entries);
        } else if (a == "--run-threads") {
            number(o.run.threads);
        } else if (a == "--run-tile-parallel") {
            o.run.tile_parallel = true;
        } else if (a == "--run-clusters") {
            number(o.run.clusters);
        } else if (a == "--run-reference") {
            o.have_reference = true;
            o.reference = parseScenario(need());
        } else if (a == "--metrics-json") {
            o.metrics_json = need();
        } else if (a == "--metrics-csv") {
            o.metrics_csv = need();
        } else if (a == "--trace-out") {
            o.trace_out = need();
        } else if (a == "--quiet") {
            o.quiet = true;
        } else if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            std::exit(2);
        }
    }
    if (o.width <= 0 || o.height <= 0 || o.frames <= 0) {
        std::fprintf(stderr, "viewport and frame count must be positive\n");
        std::exit(2);
    }
    if (!withinTraceBudget(static_cast<std::uint64_t>(o.width),
                           static_cast<std::uint64_t>(o.height),
                           static_cast<std::uint64_t>(o.frames))) {
        std::fprintf(stderr, "%s\n", traceBudgetMessage().c_str());
        std::exit(2);
    }
    // Typed validation instead of the old behavior (silent acceptance,
    // then a crash or clamp deep inside the run). Report every violation,
    // not just the first — the CLI is interactive.
    const std::vector<ConfigError> errors = o.run.validate();
    if (!errors.empty()) {
        for (ConfigError e : errors)
            std::fprintf(stderr, "invalid option: %s\n",
                         configErrorMessage(e));
        std::exit(2);
    }
    if (o.run.threads > 0)
        ThreadPool::setDefaultThreads(
            static_cast<unsigned>(o.run.threads));
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);

    // After the flags, so --help never depends on the environment.
    const Status env = parseEnvironment(processEnvironment());
    if (!env.ok())
        fatal(env.message);

    // The quality axis needs rendered images on both sides.
    o.run.keep_images = o.have_reference;

    Session session;

    GameTrace trace = buildGameTrace(o.game, o.width, o.height, o.frames);

    if (!o.trace_out.empty())
        trace::Tracing::enable();

    RunResult run = session.run(trace, o.run);

    double mssim = -1.0;
    if (o.have_reference) {
        RunConfig ref_cfg = o.run;
        ref_cfg.scenario = o.reference;
        RunResult ref = session.run(trace, ref_cfg);
        mssim = run.mssimAgainst(ref.images);
    }

    if (!o.trace_out.empty()) {
        trace::Tracing::disable();
        if (!trace::Tracing::writeFile(o.trace_out)) {
            std::fprintf(stderr, "cannot write trace to %s\n",
                         o.trace_out.c_str());
            return 1;
        }
    }

    RunMetadata meta;
    meta.tool = "pargpu_harness";
    meta.workload = trace.name;
    meta.width = o.width;
    meta.height = o.height;
    meta.frames = o.frames;

    if (!o.metrics_json.empty() &&
        !writeMetricsJson(o.metrics_json, meta, o.run, run, mssim)) {
        std::fprintf(stderr, "cannot write metrics to %s\n",
                     o.metrics_json.c_str());
        return 1;
    }
    if (!o.metrics_csv.empty() &&
        !writeMetricsCsv(o.metrics_csv, meta, o.run, run)) {
        std::fprintf(stderr, "cannot write metrics CSV to %s\n",
                     o.metrics_csv.c_str());
        return 1;
    }

    if (!o.quiet) {
        std::printf("workload   : %s (%d frames)\n", trace.name.c_str(),
                    o.frames);
        std::printf("scenario   : %s, threshold %.2f\n",
                    scenarioMetricName(o.run.scenario), o.run.threshold);
        std::printf("avg cycles : %.0f (%.2f fps @1GHz)\n", run.avg_cycles,
                    run.avg_cycles > 0.0 ? 1e9 / run.avg_cycles : 0.0);
        std::printf("energy     : %.3f mJ (%.2f W avg)\n",
                    run.total_energy_nj * 1e-6, run.avg_power_w);
        if (mssim >= 0.0)
            std::printf("mssim      : %.4f (vs %s)\n", mssim,
                        scenarioMetricName(o.reference));
        if (!o.metrics_json.empty())
            std::printf("metrics    : %s\n", o.metrics_json.c_str());
        if (!o.metrics_csv.empty())
            std::printf("csv        : %s\n", o.metrics_csv.c_str());
        if (!o.trace_out.empty())
            std::printf("trace      : %s (%zu events)\n",
                        o.trace_out.c_str(),
                        trace::Tracing::eventCount());
    }
    return 0;
}
