/**
 * @file
 * End-to-end tests for the pargpu_serve request loop (ServeLoop over
 * string streams): framing, every protocol op, typed error responses,
 * the streamed sweep event sequence, and byte-identical replays of a
 * full request stream.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/serve.hh"

using namespace pargpu;

namespace
{

/** Frame a sequence of JSON payloads into one request stream. */
std::string
frameAll(const std::vector<std::string> &payloads)
{
    std::ostringstream out;
    for (const std::string &p : payloads)
        ServeLoop::writeFrame(out, p);
    return out.str();
}

/** Run one server over @p requests; returns (exit code, responses). */
std::pair<int, std::vector<Json>>
serve(const std::vector<std::string> &requests)
{
    std::istringstream in(frameAll(requests));
    std::ostringstream out;
    ServeLoop loop(in, out);
    int rc = loop.run();

    std::vector<Json> responses;
    std::istringstream replies(out.str());
    std::string payload;
    std::string error;
    while (ServeLoop::readFrame(replies, payload, &error)) {
        Json r = Json::parse(payload, &error);
        EXPECT_TRUE(r.isObject()) << error;
        responses.push_back(std::move(r));
    }
    EXPECT_TRUE(error.empty()) << error;
    return {rc, std::move(responses)};
}

/** The standard tiny-workload load request the tests share. */
std::string
loadRequest()
{
    return R"({"op":"load","key":"w","game":"wolf",)"
           R"("width":64,"height":48,"frames":2})";
}

} // namespace

TEST(ServeFramingTest, FramesRoundTripThroughReadAndWrite)
{
    std::ostringstream out;
    ServeLoop::writeFrame(out, "hello");
    ServeLoop::writeFrame(out, "");
    ServeLoop::writeFrame(out, "{\"op\":\"ping\"}");
    EXPECT_EQ(out.str().substr(0, 7), "5\nhello");

    std::istringstream in(out.str());
    std::string payload;
    std::string error;
    ASSERT_TRUE(ServeLoop::readFrame(in, payload, &error));
    EXPECT_EQ(payload, "hello");
    ASSERT_TRUE(ServeLoop::readFrame(in, payload, &error));
    EXPECT_EQ(payload, "");
    ASSERT_TRUE(ServeLoop::readFrame(in, payload, &error));
    EXPECT_EQ(payload, "{\"op\":\"ping\"}");
    // Clean EOF: false with no error text.
    EXPECT_FALSE(ServeLoop::readFrame(in, payload, &error));
    EXPECT_TRUE(error.empty());
}

TEST(ServeFramingTest, MalformedHeaderIsAnIoErrorAndStopsTheLoop)
{
    std::istringstream in("not-a-length\n{}");
    std::ostringstream out;
    ServeLoop loop(in, out);
    EXPECT_EQ(loop.run(), 1);

    std::istringstream replies(out.str());
    std::string payload;
    std::string error;
    ASSERT_TRUE(ServeLoop::readFrame(replies, payload, &error));
    Json r = Json::parse(payload, &error);
    EXPECT_EQ(r["status"].str(), "io_error");
    EXPECT_NE(r["message"].str().find("malformed frame header"),
              std::string::npos);
}

TEST(ServeFramingTest, TruncatedPayloadIsAnIoError)
{
    std::istringstream in("100\n{\"op\":\"ping\"}");
    std::ostringstream out;
    ServeLoop loop(in, out);
    EXPECT_EQ(loop.run(), 1);
    EXPECT_NE(out.str().find("truncated frame payload"),
              std::string::npos);
}

TEST(ServeProtocolTest, PingEchoesIdAndReportsSchema)
{
    auto [rc, responses] =
        serve({R"({"op":"ping","id":"client-1"})"});
    EXPECT_EQ(rc, 0); // Clean EOF after the last request.
    ASSERT_EQ(responses.size(), 1u);
    const Json &r = responses[0];
    EXPECT_EQ(r["status"].str(), "ok");
    EXPECT_EQ(r["type"].str(), "pong");
    EXPECT_EQ(r["schema"].str(), "pargpu-serve");
    EXPECT_EQ(r["schema_version"].number(), 1.0);
    EXPECT_EQ(r["id"].str(), "client-1");
}

TEST(ServeProtocolTest, BadJsonAndUnknownOpsAreTypedNotFatal)
{
    auto [rc, responses] = serve({
        "this is not json",
        R"({"op":"frobnicate"})",
        R"({"op":"ping"})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0]["status"].str(), "invalid_request");
    EXPECT_NE(responses[0]["message"].str().find("bad JSON"),
              std::string::npos);
    EXPECT_EQ(responses[1]["status"].str(), "invalid_request");
    EXPECT_NE(responses[1]["message"].str().find("unknown op"),
              std::string::npos);
    // The loop keeps serving after request-level errors.
    EXPECT_EQ(responses[2]["type"].str(), "pong");
}

TEST(ServeProtocolTest, UnrepresentableIdsAreTypedErrors)
{
    // An infinite number or a lone surrogate has no JSON/UTF-8 form to
    // echo back: each request is rejected instead of answered with null
    // or invalid UTF-8, and the loop keeps serving.
    auto [rc, responses] = serve({
        R"({"op":"ping","id":1e999})",
        R"({"op":"ping","id":"\ud800"})",
        R"({"op":"ping","id":"\ude00x"})",
        R"({"op":"ping","id":"\ud83d\ude00"})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 4u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(responses[i]["status"].str(), "invalid_request") << i;
        EXPECT_NE(responses[i]["message"].str().find("bad JSON"),
                  std::string::npos) << i;
        EXPECT_FALSE(responses[i].has("id")) << i;
    }
    // A valid escaped pair is echoed as one 4-byte UTF-8 sequence.
    EXPECT_EQ(responses[3]["type"].str(), "pong");
    EXPECT_EQ(responses[3]["id"].str(), "\xF0\x9F\x98\x80");
}

TEST(ServeProtocolTest, DeeplyNestedJsonIsATypedErrorNotACrash)
{
    // 200k nested arrays used to overflow the recursive parser's stack.
    auto [rc, responses] = serve({
        std::string(200000, '['),
        R"({"op":"ping"})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0]["status"].str(), "invalid_request");
    EXPECT_NE(responses[0]["message"].str().find("nesting"),
              std::string::npos);
    EXPECT_EQ(responses[1]["type"].str(), "pong");
}

TEST(ServeProtocolTest, LoadThenTracesListsTheAsset)
{
    auto [rc, responses] = serve({
        loadRequest(),
        loadRequest(), // Duplicate key is a typed rejection.
        R"({"op":"traces"})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0]["status"].str(), "ok");
    EXPECT_EQ(responses[1]["status"].str(), "duplicate_key");
    const Json &traces = responses[2]["traces"];
    ASSERT_TRUE(traces.isArray());
    ASSERT_EQ(traces.items().size(), 1u);
    EXPECT_EQ(traces[0]["key"].str(), "w");
    EXPECT_EQ(traces[0]["width"].number(), 64.0);
    EXPECT_EQ(traces[0]["height"].number(), 48.0);
    EXPECT_EQ(traces[0]["frames"].number(), 2.0);
}

/** Sizes of a load request that must be rejected, not cast or built. */
class ServeHostileLoadTest : public testing::TestWithParam<const char *>
{
};

TEST_P(ServeHostileLoadTest, IsATypedRejectionAndTheServerStaysUp)
{
    auto [rc, responses] = serve({
        std::string(R"({"op":"load","key":"bad","game":"wolf",)") +
            GetParam() + "}",
        // The serve_threshold_sweep benchmark's load stays valid.
        R"({"op":"load","key":"w3","game":"hl2",)"
        R"("width":160,"height":128,"frames":2})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0]["status"].str(), "invalid_request");
    EXPECT_EQ(responses[1]["status"].str(), "ok");
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ServeHostileLoadTest,
    testing::Values(
        // Outside int range: casting it to int is undefined behavior.
        R"("width":1e30,"height":48,"frames":2)",
        // Non-finite (the parser reads 1e999 as infinity).
        R"("width":64,"height":1e999,"frames":2)",
        // In int range but above readTrace()'s viewport limit.
        R"("width":100000,"height":100000,"frames":2)",
        // Above readTrace()'s camera limit; building it exhausts memory.
        R"("width":64,"height":48,"frames":2e9)",
        // Each side and the frame count at their caps, the product far
        // over the pixel x frame budget.
        R"("width":16384,"height":16384,"frames":1048576)",
        // One frame past the budget.
        R"("width":16384,"height":16384,"frames":5)"));

TEST(ServeProtocolTest, RunValidatesConfigWithTypedReasons)
{
    auto [rc, responses] = serve({
        loadRequest(),
        // Unknown config member: the server never guesses.
        R"({"op":"run","trace":"w","config":{"treshold":0.5}})",
        // Known member, out-of-range value: InvalidConfig with the
        // configErrorMessage() text.
        R"({"op":"run","trace":"w","config":{"threshold":1.5}})",
        // Unknown trace key.
        R"({"op":"run","trace":"nope"})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 4u);
    EXPECT_EQ(responses[1]["status"].str(), "invalid_request");
    EXPECT_NE(responses[1]["message"].str().find(
                  "config.treshold: unknown member"),
              std::string::npos);
    EXPECT_EQ(responses[2]["status"].str(), "invalid_config");
    EXPECT_NE(responses[2]["message"].str().find(
                  configErrorMessage(ConfigError::BadThreshold)),
              std::string::npos);
    EXPECT_EQ(responses[3]["status"].str(), "unknown_trace");
}

TEST(ServeProtocolTest, RunReturnsTheVersionedMetricsDocument)
{
    auto [rc, responses] = serve({
        loadRequest(),
        R"({"op":"run","trace":"w",)"
        R"("config":{"scenario":"patu","keep_images":false}})",
        R"({"op":"status"})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 3u);
    const Json &metrics = responses[1]["metrics"];
    ASSERT_TRUE(metrics.isObject());
    EXPECT_EQ(metrics["schema"].str(), "pargpu-metrics");
    EXPECT_EQ(metrics["run"]["workload"].str(), "w");
    EXPECT_EQ(metrics["run"]["scenario"].str(), "patu");
    EXPECT_TRUE(metrics["aggregate"].has("avg_cycles"));
    EXPECT_EQ(metrics["frames"].items().size(), 2u);
    EXPECT_EQ(responses[2]["jobs_submitted"].number(), 1.0);
    EXPECT_EQ(responses[2]["jobs_completed"].number(), 1.0);
}

TEST(ServeProtocolTest, SweepStreamsJobEventsThenResults)
{
    auto [rc, responses] = serve(
        {
            loadRequest(),
            R"({"op":"sweep","trace":"w","id":"s1","configs":[)"
            R"({"scenario":"baseline","keep_images":false},)"
            R"({"scenario":"patu","keep_images":false},)"
            R"({"scenario":"ntxds","keep_images":false}]})",
        });
    EXPECT_EQ(rc, 0);
    // load ack + 3 job_done events + 1 final results frame.
    ASSERT_EQ(responses.size(), 5u);
    for (std::size_t i = 0; i < 3; ++i) {
        const Json &event = responses[1 + i];
        EXPECT_EQ(event["status"].str(), "ok");
        EXPECT_EQ(event["event"].str(), "job_done");
        EXPECT_EQ(event["index"].number(), static_cast<double>(i));
        EXPECT_EQ(event["id"].str(), "s1");
        EXPECT_EQ(event["snapshot"]["state"].str(), "done");
        EXPECT_EQ(event["snapshot"]["frames_completed"].number(),
                  event["snapshot"]["frames_total"].number());
    }
    const Json &done = responses[4];
    EXPECT_EQ(done["event"].str(), "done");
    EXPECT_EQ(done["id"].str(), "s1");
    ASSERT_EQ(done["results"].items().size(), 3u);
    EXPECT_EQ(done["results"][0]["run"]["scenario"].str(), "baseline");
    EXPECT_EQ(done["results"][1]["run"]["scenario"].str(), "patu");
    EXPECT_EQ(done["results"][2]["run"]["scenario"].str(), "ntxds");
    // results[i] is built from job i, the job its job_done event
    // reported (each document right after that event).
    for (std::size_t i = 0; i < 3; ++i) {
        const Json &snapshot = responses[1 + i]["snapshot"];
        EXPECT_EQ(done["results"][i]["registry"].dump(),
                  snapshot["registry"].dump());
        EXPECT_EQ(done["results"][i]["aggregate"]["avg_cycles"].number(),
                  snapshot["aggregate"]["avg_cycles"].number());
    }
}

TEST(ServeProtocolTest, SweepRejectionsNameTheOffendingConfig)
{
    auto [rc, responses] = serve({
        loadRequest(),
        R"({"op":"sweep","trace":"w","configs":[)"
        R"({"scenario":"baseline"},{"threshold":"high"}]})",
        R"({"op":"sweep","trace":"w","configs":[)"
        R"({"scenario":"baseline"},{"tc_scale":7}]})",
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[1]["status"].str(), "invalid_request");
    EXPECT_NE(responses[1]["message"].str().find("configs[1]"),
              std::string::npos);
    // Range failures surface at submission, still indexed.
    EXPECT_EQ(responses[2]["status"].str(), "invalid_config");
    EXPECT_NE(responses[2]["message"].str().find("configs[1]"),
              std::string::npos);
}

TEST(ServeProtocolTest, ShutdownStopsBeforeLaterRequests)
{
    auto [rc, responses] = serve({
        R"({"op":"shutdown","id":"bye-now"})",
        R"({"op":"ping"})", // Never served.
    });
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0]["type"].str(), "bye");
    EXPECT_EQ(responses[0]["id"].str(), "bye-now");
}

TEST(ServeDeterminismTest, IdenticalRequestStreamsYieldIdenticalBytes)
{
    // The acceptance property behind the protocol: with a deterministic
    // simulator, the full response stream — including the concurrently
    // executed sweep — is a pure function of the request stream.
    const std::string requests = frameAll({
        loadRequest(),
        R"({"op":"sweep","trace":"w","id":"rep","configs":[)"
        R"({"scenario":"baseline","keep_images":false},)"
        R"({"scenario":"patu","threshold":0.8,"keep_images":false}]})",
        R"({"op":"status"})",
        R"({"op":"shutdown"})",
    });

    std::string first;
    for (int round = 0; round < 2; ++round) {
        std::istringstream in(requests);
        std::ostringstream out;
        ServeLoop loop(in, out);
        ASSERT_EQ(loop.run(), 0);
        if (round == 0)
            first = out.str();
        else
            EXPECT_EQ(out.str(), first);
    }
    EXPECT_FALSE(first.empty());
}
