/**
 * @file
 * pargpu public API — deterministic parallelism.
 *
 * Re-exports the ThreadPool used for frame/config-level parallelism
 * (PARGPU_THREADS, setDefaultThreads, parallel-for).
 */

#ifndef PARGPU_THREADING_HH
#define PARGPU_THREADING_HH

#include "common/threadpool.hh"

#endif // PARGPU_THREADING_HH
