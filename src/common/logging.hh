/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * fatal(): the simulation cannot continue because of a user error (bad
 * configuration, invalid arguments) — exits with status 1.
 * panic(): an internal invariant was violated (a pargpu bug) — aborts.
 * inform(): non-fatal status messages on stderr.
 */

#ifndef PARGPU_COMMON_LOGGING_HH
#define PARGPU_COMMON_LOGGING_HH

#include <string>

namespace pargpu
{

/** Print an informational message to stderr. */
void inform(const std::string &msg);

/** Report a user-caused error and exit(1). */
[[noreturn]] void fatal(const std::string &msg);

/** Report an internal bug and abort(). */
[[noreturn]] void panic(const std::string &msg);

} // namespace pargpu

#endif // PARGPU_COMMON_LOGGING_HH
