/**
 * @file
 * pargpu_serve request loop: length-prefixed JSON frames over a stream
 * pair, executing against one persistent Session.
 *
 * Framing (both directions): the ASCII decimal byte length of the
 * payload, a single '\n', then exactly that many payload bytes — no
 * trailing separator. A frame's payload is one JSON document.
 *
 * Requests are objects with an "op" member ("ping", "load", "traces",
 * "run", "sweep", "status", "shutdown"; docs/SERVE.md specifies each).
 * Every response carries "status": "ok" or a statusCodeName(), plus
 * "message" on errors; an "id" member in the request is echoed back.
 * "sweep" responds with a deterministic stream of frames: one
 * job-snapshot event per config (in submission order, each emitted when
 * that job finishes) followed by a final frame with the full metrics
 * documents.
 *
 * The loop is transport-agnostic (std::istream/std::ostream), so
 * serve_main.cc binds it to stdin/stdout and tests drive it with string
 * streams; determinism of the simulator makes the full response stream
 * for a given request stream reproducible byte for byte.
 */

#ifndef PARGPU_HARNESS_SERVE_HH
#define PARGPU_HARNESS_SERVE_HH

#include <iosfwd>
#include <string>

#include "harness/session.hh"

namespace pargpu
{

/** Non-fatal workload-name parser ("hl2", "doom3", ...). */
bool parseGameName(const std::string &name, GameId &out);

/** Non-fatal scenario-name parser ("baseline", "noaf", "n", ...). */
bool parseScenarioName(const std::string &name, DesignScenario &out);

/**
 * Strictly parse a request's "config" object into @p out (which keeps
 * its defaults for absent members). Unknown members and wrong types are
 * InvalidRequest — the server never guesses. Range validity is checked
 * separately by validateRunConfig() at submission.
 */
Status parseRunConfigJson(const Json &j, RunConfig &out);

/** One server: a Session plus the framed request/response loop. */
class ServeLoop
{
  public:
    /** Payloads above this many bytes are rejected as IoError. */
    static constexpr std::size_t kMaxFrameBytes = 1u << 26;

    ServeLoop(std::istream &in, std::ostream &out);

    /**
     * Process frames until "shutdown", clean EOF, or a transport error.
     * Returns 0 on clean exit, 1 on a malformed/oversized frame.
     */
    int run();

    /** The session requests execute against (tests inspect it). */
    Session &session() { return session_; }

    /**
     * Read one frame's payload. False at clean EOF (error empty) or on
     * a framing violation (error set). Shared with the test driver.
     */
    static bool readFrame(std::istream &in, std::string &payload,
                          std::string *error);

    /** Write one framed payload and flush. */
    static void writeFrame(std::ostream &out, const std::string &payload);

  private:
    /** Dispatch a single-response op; sets shutdown_ for "shutdown". */
    Json handle(const Json &request);

    /** The streamed "sweep" op (writes its own frames). */
    void handleSweep(const Json &request);

    Session session_;
    std::istream &in_;
    std::ostream &out_;
    bool shutdown_ = false;
};

} // namespace pargpu

#endif // PARGPU_HARNESS_SERVE_HH
