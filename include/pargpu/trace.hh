/**
 * @file
 * pargpu public API — workload trace serialization.
 *
 * Re-exports binary trace writing/reading (the ATTILA-trace analog): a
 * trace reconstructs a bit-identical workload.
 */

#ifndef PARGPU_TRACE_HH
#define PARGPU_TRACE_HH

#include "trace/trace.hh"

#endif // PARGPU_TRACE_HH
