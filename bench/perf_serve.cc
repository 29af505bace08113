/**
 * @file
 * Serve-amortization perf bench: drives the real ServeLoop (the loop
 * behind pargpu_serve) with framed JSON requests and measures what a
 * persistent session buys on repeated sweeps.
 *
 * Two modes over the same 16-config threshold sweep, repeated
 * kSweeps times:
 *   amortized — one server: a single "load" (asset decode counted
 *               once), then every sweep against the shared immutable
 *               trace;
 *   fresh     — one server per sweep: each iteration pays the full
 *               session boot + asset decode, the cost of shelling out
 *               to a fresh process per sweep (a lower bound on it — no
 *               exec/link/teardown is included).
 *
 * Every response frame of every sweep is compared byte-for-byte across
 * modes: amortization must not change a single payload. A ping flood
 * through the same loop measures protocol overhead as requests/second.
 * Results go to BENCH_serve.json; scripts/check.sh gates the speedup
 * and the bit-identity via tools/pargpu_report.py --serve-bench.
 *
 * A tiny render (48x36, 1 frame) on purpose: the bench isolates the
 * per-request asset and boot overheads the Session API amortizes, not
 * simulation throughput (perfbench/run.py measures that). Wall-clock
 * depends on the machine; the bit-identity check does not.
 */

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "pargpu/session.hh"

using namespace pargpu;

namespace
{

constexpr int kSweeps = 16;
constexpr int kConfigsPerSweep = 16;
constexpr int kPings = 20000;

double
seconds(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** The "load" request decoding the bench workload server-side. */
std::string
loadRequest()
{
    return R"({"op":"load","key":"hl2","game":"hl2",)"
           R"("width":48,"height":36,"frames":1})";
}

/** One 16-config threshold sweep (fig17-style) as a request payload. */
std::string
sweepRequest()
{
    std::string configs;
    for (int i = 0; i < kConfigsPerSweep; ++i) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      R"(%s{"scenario":"patu","threshold":%.4f,)"
                      R"("keep_images":false})",
                      i == 0 ? "" : ",",
                      0.5 + 0.03 * static_cast<double>(i));
        configs += buf;
    }
    return R"({"op":"sweep","trace":"hl2","configs":[)" + configs + "]}";
}

/** Frame payloads into one request stream. */
std::string
frameAll(const std::vector<std::string> &payloads)
{
    std::ostringstream out;
    for (const std::string &p : payloads)
        ServeLoop::writeFrame(out, p);
    return out.str();
}

/** Split a response stream back into per-frame payloads. */
std::vector<std::string>
splitFrames(const std::string &stream)
{
    std::istringstream in(stream);
    std::vector<std::string> frames;
    std::string payload;
    while (ServeLoop::readFrame(in, payload, nullptr))
        frames.push_back(payload);
    return frames;
}

/** Serve @p requests on one fresh server; returns the response stream. */
std::string
serveOnce(const std::string &requests)
{
    std::istringstream in(requests);
    std::ostringstream out;
    ServeLoop loop(in, out);
    if (loop.run() != 0) {
        std::fprintf(stderr, "perf_serve: serve loop failed\n");
        std::exit(1);
    }
    return out.str();
}

} // namespace

int
main()
{
    bench::applyEnvironment();
    std::printf("=============================================="
                "========================\n");
    std::printf("Perf serve: persistent session vs fresh "
                "boot per sweep\n");
    std::printf("%d sweeps x %d configs, hl2 48x36x1, "
                "decode amortized across sweeps\n",
                kSweeps, kConfigsPerSweep);
    std::printf("=============================================="
                "========================\n");

    const std::string sweep = sweepRequest();

    // Amortized: one server, one load, kSweeps sweeps. The decode
    // happens once, inside the timed region (it is part of the cost a
    // persistent server pays exactly once).
    std::vector<std::string> amortized_requests = {loadRequest()};
    for (int i = 0; i < kSweeps; ++i)
        amortized_requests.push_back(sweep);
    amortized_requests.push_back(R"({"op":"shutdown"})");

    auto a0 = std::chrono::steady_clock::now();
    const std::string amortized_out =
        serveOnce(frameAll(amortized_requests));
    auto a1 = std::chrono::steady_clock::now();
    const double amortized_sec = seconds(a0, a1);

    // Fresh: a new server (new Session, full asset decode) per sweep —
    // what "one process per sweep" costs at minimum.
    const std::string fresh_requests =
        frameAll({loadRequest(), sweep, R"({"op":"shutdown"})"});
    std::vector<std::string> fresh_outs;
    auto f0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSweeps; ++i)
        fresh_outs.push_back(serveOnce(fresh_requests));
    auto f1 = std::chrono::steady_clock::now();
    const double fresh_sec = seconds(f0, f1);

    // Bit-identity across modes: sweep i's response frames (one
    // job_done event per config plus the final metrics frame) must be
    // byte-identical whether the session was fresh or reused.
    const std::vector<std::string> amortized_frames =
        splitFrames(amortized_out);
    // load ack, then kSweeps * (kConfigsPerSweep + 1) frames, then bye.
    const std::size_t per_sweep = kConfigsPerSweep + 1;
    bool identical =
        amortized_frames.size() == 2 + kSweeps * per_sweep;
    for (int i = 0; identical && i < kSweeps; ++i) {
        const std::vector<std::string> fresh_frames =
            splitFrames(fresh_outs[static_cast<std::size_t>(i)]);
        identical = fresh_frames.size() == 2 + per_sweep;
        for (std::size_t j = 0; identical && j < per_sweep; ++j)
            identical =
                amortized_frames[1 + static_cast<std::size_t>(i) *
                                         per_sweep + j] ==
                fresh_frames[1 + j];
    }

    // Protocol overhead: a ping flood through the same framed loop.
    std::vector<std::string> pings(kPings, R"({"op":"ping"})");
    auto p0 = std::chrono::steady_clock::now();
    const std::string ping_out = serveOnce(frameAll(pings));
    auto p1 = std::chrono::steady_clock::now();
    const double ping_sec = seconds(p0, p1);
    const double ping_rps =
        ping_sec > 0.0 ? kPings / ping_sec : 0.0;
    if (splitFrames(ping_out).size() != kPings) {
        std::fprintf(stderr, "perf_serve: ping flood lost frames\n");
        return 1;
    }

    const double speedup =
        amortized_sec > 0.0 ? fresh_sec / amortized_sec : 0.0;
    std::printf("  amortized : %7.2f s  (%.2f sweeps/s)\n",
                amortized_sec, kSweeps / amortized_sec);
    std::printf("  fresh     : %7.2f s  (%.2f sweeps/s)\n",
                fresh_sec, kSweeps / fresh_sec);
    std::printf("  speedup   : %7.2fx  bit-identical: %s\n", speedup,
                identical ? "yes" : "NO");
    std::printf("  ping      : %9.0f requests/s\n", ping_rps);

    FILE *f = std::fopen("BENCH_serve.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_serve.json\n");
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"perf_serve\",\n"
                 "  \"schema\": \"pargpu-serve-bench\",\n"
                 "  \"schema_version\": 1,\n"
                 "  \"workload\": \"hl2\",\n"
                 "  \"width\": 48,\n"
                 "  \"height\": 36,\n"
                 "  \"frames\": 1,\n"
                 "  \"sweeps\": %d,\n"
                 "  \"configs_per_sweep\": %d,\n"
                 "  \"amortized_seconds\": %.6f,\n"
                 "  \"amortized_sweeps_per_second\": %.6f,\n"
                 "  \"fresh_seconds\": %.6f,\n"
                 "  \"fresh_sweeps_per_second\": %.6f,\n"
                 "  \"amortization_speedup\": %.6f,\n"
                 "  \"ping_requests_per_second\": %.1f,\n"
                 "  \"bit_identical\": %s\n"
                 "}\n",
                 kSweeps, kConfigsPerSweep, amortized_sec,
                 kSweeps / amortized_sec, fresh_sec,
                 kSweeps / fresh_sec, speedup, ping_rps,
                 identical ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_serve.json\n");

    return identical ? 0 : 1;
}
