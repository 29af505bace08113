/**
 * @file
 * pargpu_serve: persistent simulation server over stdin/stdout.
 *
 * Binds a ServeLoop to the process's standard streams: the client (e.g.
 * `pargpu_report.py --serve`) spawns this binary, writes length-prefixed
 * JSON request frames to its stdin and reads response frames from its
 * stdout (protocol in docs/SERVE.md). Assets load once per process and
 * are shared read-only across every request — the amortization
 * BENCH_serve.json measures.
 */

#include <cstdio>
#include <cstring>
#include <iostream>

#include "harness/serve.hh"

namespace
{

void
usage()
{
    std::printf(
        "pargpu_serve: persistent simulation server (docs/SERVE.md)\n"
        "\n"
        "Speaks length-prefixed JSON frames over stdin/stdout:\n"
        "  <decimal payload bytes>\\n<payload>\n"
        "Ops: ping, load, traces, run, sweep (streamed), status, "
        "shutdown.\n"
        "\n"
        "Options:\n"
        "  --help            this text\n");
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            usage();
            return 0;
        }
        std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
        usage();
        return 2;
    }
    // Frames are written explicitly and flushed per frame; keeping
    // iostream sync off avoids per-character stdio round-trips.
    std::ios::sync_with_stdio(false);
    pargpu::ServeLoop loop(std::cin, std::cout);
    return loop.run();
}
