#include "harness/serve.hh"

#include <istream>
#include <limits>
#include <ostream>

#include "harness/metrics.hh"

namespace pargpu
{

namespace
{

/** Serve protocol schema version (docs/SERVE.md; bumped on change). */
constexpr int kServeSchemaVersion = 1;

/** A response skeleton carrying @p status and the request's echoed id. */
Json
responseFor(const Json &request, const Status &status)
{
    Json r = Json::object();
    r.set("status", Json{statusCodeName(status.code)});
    if (!status.ok())
        r.set("message", Json{status.message});
    if (request.has("id"))
        r.set("id", request["id"]);
    return r;
}

/**
 * Integer-valued number member that fits an int (rejects 1.5, 1e30 and
 * 1e999 for "width"). The range check runs before the cast, which is
 * undefined behavior for values an int cannot hold.
 */
bool
intMember(const Json &j, double &out)
{
    if (!j.isNumber())
        return false;
    out = j.number();
    return out >= std::numeric_limits<int>::min() &&
        out <= std::numeric_limits<int>::max() &&
        out == static_cast<double>(static_cast<int>(out));
}

/** Full metrics document for one finished run on @p trace. */
Json
runMetrics(const std::string &key, const GameTrace &trace,
           const RunConfig &config, const RunResult &result)
{
    RunMetadata meta;
    meta.tool = "pargpu_serve";
    meta.workload = key;
    meta.width = trace.width;
    meta.height = trace.height;
    meta.frames = static_cast<int>(trace.cameras.size());
    return metricsJson(meta, config, result);
}

} // namespace

bool
parseGameName(const std::string &name, GameId &out)
{
    if (name == "hl2") out = GameId::HL2;
    else if (name == "doom3") out = GameId::Doom3;
    else if (name == "grid") out = GameId::Grid;
    else if (name == "nfs") out = GameId::Nfs;
    else if (name == "stal") out = GameId::Stalker;
    else if (name == "ut3") out = GameId::Ut3;
    else if (name == "wolf") out = GameId::Wolf;
    else if (name == "rbench") out = GameId::RBench;
    else return false;
    return true;
}

bool
parseScenarioName(const std::string &name, DesignScenario &out)
{
    if (name == "baseline") out = DesignScenario::Baseline;
    else if (name == "noaf") out = DesignScenario::NoAF;
    else if (name == "n") out = DesignScenario::AfSsimN;
    else if (name == "ntxds") out = DesignScenario::AfSsimNTxds;
    else if (name == "patu") out = DesignScenario::Patu;
    else return false;
    return true;
}

Status
parseRunConfigJson(const Json &j, RunConfig &out)
{
    if (!j.isObject())
        return Status::fail(StatusCode::InvalidRequest,
                            "config must be an object");
    for (const auto &kv : j.members()) {
        const std::string &key = kv.first;
        const Json &v = kv.second;
        double n = 0.0;
        if (key == "scenario") {
            if (!v.isString() || !parseScenarioName(v.str(), out.scenario))
                return Status::fail(StatusCode::InvalidRequest,
                                    "config.scenario: unknown scenario '" +
                                        v.str() + "'");
        } else if (key == "threshold") {
            if (!v.isNumber())
                return Status::fail(StatusCode::InvalidRequest,
                                    "config.threshold must be a number");
            out.threshold = static_cast<float>(v.number());
        } else if (key == "tc_scale") {
            if (!intMember(v, n) || n < 0)
                return Status::fail(StatusCode::InvalidRequest,
                                    "config.tc_scale must be a "
                                    "non-negative integer");
            out.tc_scale = static_cast<unsigned>(n);
        } else if (key == "llc_scale") {
            if (!intMember(v, n) || n < 0)
                return Status::fail(StatusCode::InvalidRequest,
                                    "config.llc_scale must be a "
                                    "non-negative integer");
            out.llc_scale = static_cast<unsigned>(n);
        } else if (key == "max_aniso") {
            if (!intMember(v, n))
                return Status::fail(StatusCode::InvalidRequest,
                                    "config.max_aniso must be an integer");
            out.max_aniso = static_cast<int>(n);
        } else if (key == "keep_images") {
            if (!v.isBool())
                return Status::fail(StatusCode::InvalidRequest,
                                    "config.keep_images must be a bool");
            out.keep_images = v.boolean();
        } else if (key == "table_entries") {
            if (!intMember(v, n))
                return Status::fail(StatusCode::InvalidRequest,
                                    "config.table_entries must be an "
                                    "integer");
            out.table_entries = static_cast<int>(n);
        } else if (key == "threads") {
            if (!intMember(v, n))
                return Status::fail(StatusCode::InvalidRequest,
                                    "config.threads must be an integer");
            out.threads = static_cast<int>(n);
        } else if (key == "tile_parallel") {
            if (!v.isBool())
                return Status::fail(StatusCode::InvalidRequest,
                                    "config.tile_parallel must be a bool");
            out.tile_parallel = v.boolean();
        } else if (key == "clusters") {
            if (!intMember(v, n))
                return Status::fail(StatusCode::InvalidRequest,
                                    "config.clusters must be an integer");
            out.clusters = static_cast<int>(n);
        } else if (key == "filter_policy") {
            FilterPolicyId id;
            if (!v.isString() || !parseFilterPolicy(v.str(), id))
                return Status::fail(StatusCode::InvalidRequest,
                                    "config.filter_policy: unknown "
                                    "policy '" + v.str() + "'");
            out.filter_policy = id;
        } else {
            return Status::fail(StatusCode::InvalidRequest,
                                "config." + key + ": unknown member");
        }
    }
    return Status::success();
}

ServeLoop::ServeLoop(std::istream &in, std::ostream &out)
    : in_(in), out_(out)
{
}

bool
ServeLoop::readFrame(std::istream &in, std::string &payload,
                     std::string *error)
{
    if (error != nullptr)
        error->clear();
    std::string header;
    if (!std::getline(in, header)) {
        // Clean EOF between frames; anything unread would have produced
        // a header line first.
        return false;
    }
    std::size_t length = 0;
    if (header.empty() ||
        header.find_first_not_of("0123456789") != std::string::npos) {
        if (error != nullptr)
            *error = "malformed frame header '" + header + "'";
        return false;
    }
    for (char c : header) {
        length = length * 10 + static_cast<std::size_t>(c - '0');
        if (length > kMaxFrameBytes) {
            if (error != nullptr)
                *error = "frame exceeds " +
                         std::to_string(kMaxFrameBytes) + " bytes";
            return false;
        }
    }
    payload.resize(length);
    if (length > 0 &&
        !in.read(payload.data(), static_cast<std::streamsize>(length))) {
        if (error != nullptr)
            *error = "truncated frame payload";
        return false;
    }
    return true;
}

void
ServeLoop::writeFrame(std::ostream &out, const std::string &payload)
{
    out << payload.size() << "\n" << payload;
    out.flush();
}

int
ServeLoop::run()
{
    std::string payload;
    for (;;) {
        std::string frame_error;
        if (!readFrame(in_, payload, &frame_error)) {
            if (frame_error.empty())
                return 0; // Clean EOF: client closed the request stream.
            Json err = Json::object();
            err.set("status",
                    Json{statusCodeName(StatusCode::IoError)});
            err.set("message", Json{frame_error});
            writeFrame(out_, err.dump());
            return 1;
        }
        std::string parse_error;
        Json request = Json::parse(payload, &parse_error);
        if (!request.isObject()) {
            Json err = responseFor(
                Json::object(),
                Status::fail(StatusCode::InvalidRequest,
                             parse_error.empty()
                                 ? "request must be a JSON object"
                                 : "bad JSON: " + parse_error));
            writeFrame(out_, err.dump());
            continue;
        }
        if (request["op"].str() == "sweep") {
            handleSweep(request);
            continue;
        }
        Json response = handle(request);
        writeFrame(out_, response.dump());
        if (shutdown_)
            return 0;
    }
}

Json
ServeLoop::handle(const Json &request)
{
    const std::string op = request["op"].str();

    if (op == "ping") {
        Json r = responseFor(request, Status::success());
        r.set("type", Json{"pong"});
        r.set("schema", Json{"pargpu-serve"});
        r.set("schema_version", Json{kServeSchemaVersion});
        return r;
    }

    if (op == "load") {
        GameId game;
        double w = 0.0, h = 0.0, frames = 0.0;
        if (!request["key"].isString() || !request["game"].isString() ||
            !parseGameName(request["game"].str(), game) ||
            !intMember(request["width"], w) ||
            !intMember(request["height"], h) ||
            !intMember(request["frames"], frames))
            return responseFor(
                request,
                Status::fail(StatusCode::InvalidRequest,
                             "load needs key (string), game (known "
                             "name), width/height/frames (integers)"));
        Status st = session_.load(request["key"].str(), game,
                                  static_cast<int>(w),
                                  static_cast<int>(h),
                                  static_cast<int>(frames));
        return responseFor(request, st);
    }

    if (op == "traces") {
        Json r = responseFor(request, Status::success());
        Json list = Json::array();
        for (const std::string &key : session_.traceKeys()) {
            std::shared_ptr<const GameTrace> t = session_.trace(key);
            Json e = Json::object();
            e.set("key", Json{key});
            e.set("workload", Json{t->name});
            e.set("width", Json{t->width});
            e.set("height", Json{t->height});
            e.set("frames",
                  Json{static_cast<std::uint64_t>(t->cameras.size())});
            list.push(std::move(e));
        }
        r.set("traces", std::move(list));
        return r;
    }

    if (op == "run") {
        if (!request["trace"].isString())
            return responseFor(
                request, Status::fail(StatusCode::InvalidRequest,
                                      "run needs trace (string key)"));
        RunConfig config;
        Status st = Status::success();
        if (request.has("config")) // Absent config = all defaults.
            st = parseRunConfigJson(request["config"], config);
        if (!st.ok())
            return responseFor(request, st);
        const std::string key = request["trace"].str();
        JobHandle job = session_.submit(key, config, &st);
        if (job == nullptr)
            return responseFor(request, st);
        job->wait();
        Json r = responseFor(request, Status::success());
        r.set("metrics", runMetrics(key, *session_.trace(key), config,
                                    job->result()));
        return r;
    }

    if (op == "status") {
        Json r = responseFor(request, Status::success());
        r.set("traces",
              Json{static_cast<std::uint64_t>(
                  session_.traceKeys().size())});
        r.set("jobs_submitted",
              Json{static_cast<std::uint64_t>(
                  session_.jobsSubmitted())});
        r.set("jobs_completed",
              Json{static_cast<std::uint64_t>(
                  session_.jobsCompleted())});
        return r;
    }

    if (op == "shutdown") {
        shutdown_ = true;
        Json r = responseFor(request, Status::success());
        r.set("type", Json{"bye"});
        return r;
    }

    return responseFor(request,
                       Status::fail(StatusCode::InvalidRequest,
                                    "unknown op '" + op + "'"));
}

void
ServeLoop::handleSweep(const Json &request)
{
    if (!request["trace"].isString() ||
        !request["configs"].isArray()) {
        writeFrame(out_,
                   responseFor(request,
                               Status::fail(StatusCode::InvalidRequest,
                                            "sweep needs trace (string "
                                            "key) and configs (array)"))
                       .dump());
        return;
    }
    const std::string key = request["trace"].str();
    std::vector<RunConfig> configs;
    configs.reserve(request["configs"].items().size());
    for (std::size_t i = 0; i < request["configs"].items().size(); ++i) {
        RunConfig config;
        Status st = parseRunConfigJson(request["configs"][i], config);
        if (!st.ok()) {
            st.message =
                "configs[" + std::to_string(i) + "]: " + st.message;
            writeFrame(out_, responseFor(request, st).dump());
            return;
        }
        configs.push_back(config);
    }

    Status st;
    std::vector<JobHandle> jobs = session_.submitSweep(key, configs, &st);
    if (!st.ok()) {
        writeFrame(out_, responseFor(request, st).dump());
        return;
    }

    // Stream one snapshot event per job, in submission order, each
    // emitted once that job finishes. Jobs' frames run concurrently on
    // the shared pool, but the event order (and every payload) is
    // deterministic: a Done snapshot is a pure function of the config.
    // Job i's metrics document is built right after its event, while
    // later jobs still render.
    std::shared_ptr<const GameTrace> trace = session_.trace(key);
    Json results = Json::array();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i]->wait();
        Json event = Json::object();
        event.set("status", Json{statusCodeName(StatusCode::Ok)});
        event.set("event", Json{"job_done"});
        event.set("index", Json{static_cast<std::uint64_t>(i)});
        if (request.has("id"))
            event.set("id", request["id"]);
        event.set("snapshot", jobs[i]->snapshot());
        writeFrame(out_, event.dump());
        results.push(runMetrics(key, *trace, configs[i],
                                jobs[i]->result()));
    }

    Json final_frame = responseFor(request, Status::success());
    final_frame.set("event", Json{"done"});
    final_frame.set("results", std::move(results));
    writeFrame(out_, final_frame.dump());
}

} // namespace pargpu
