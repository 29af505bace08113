/**
 * @file
 * Companion TU for tracing_test compiled with PARGPU_TRACING_DISABLED, so
 * the test can prove the macros expand to nothing in disabled builds even
 * while the rest of the binary has tracing compiled in.
 */

#define PARGPU_TRACING_DISABLED 1
#include "common/tracing.hh"

namespace pargpu_test
{

/** Exercise every trace macro in a disabled TU; must record nothing. */
void
disabledTracingBody()
{
    PARGPU_TRACE_SCOPE("test", "disabled_scope");
    PARGPU_TRACE_SCOPE_F("test", "disabled_scope_f", 7);
    PARGPU_TRACE_SPAN(span, "test", "disabled_span");
    span.setValue(3);
    PARGPU_TRACE_COUNTER("test", "disabled.counter", 42);
    PARGPU_TRACE_INSTANT("test", "disabled_instant");
}

} // namespace pargpu_test
