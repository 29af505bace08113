#include "common/contract.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace pargpu
{
namespace contract
{

namespace
{

/** The installed failure handler; nullptr is the default one. */
std::atomic<FailHandler> g_handler{nullptr};

[[noreturn]] void
defaultFail(const Site &site, const std::string &msg)
{
    std::fprintf(stderr,
                 "contract violation (%s) at %s:%d: %s\n",
                 kindName(site.kind), site.file, site.line, site.expr);
    if (!msg.empty())
        std::fprintf(stderr, "  %s\n", msg.c_str());
    std::abort();
}

[[noreturn]] void
throwingFail(const Site &site, const std::string &msg)
{
    std::string what = std::string("contract violation (") +
        kindName(site.kind) + ") at " + site.file + ":" +
        std::to_string(site.line) + ": " + site.expr;
    if (!msg.empty())
        what += " [" + msg + "]";
    throw ContractViolation(what);
}

} // namespace

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Assert:
        return "assert";
      case Kind::Invariant:
        return "invariant";
      case Kind::Range:
        return "range";
    }
    return "?";
}

FailHandler
setFailHandler(FailHandler handler)
{
    return g_handler.exchange(handler);
}

ScopedFailHandler::ScopedFailHandler()
    : prev_(setFailHandler(&throwingFail))
{
}

ScopedFailHandler::~ScopedFailHandler()
{
    setFailHandler(prev_);
}

void
fail(const Site &site, const std::string &msg)
{
    FailHandler handler = g_handler.load();
    if (handler != nullptr)
        handler(site, msg);
    // A custom handler that returns (or none installed) must not let
    // execution continue past a violated contract.
    defaultFail(site, msg);
}

} // namespace contract
} // namespace pargpu
