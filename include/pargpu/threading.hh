/**
 * @file
 * pargpu public API — deterministic parallelism.
 *
 * Re-exports the ThreadPool used for frame/config-level parallelism
 * (setBaseThreads, which PARGPU_THREADS sets through parseEnvironment();
 * setDefaultThreads; parallel-for).
 */

#ifndef PARGPU_THREADING_HH
#define PARGPU_THREADING_HH

#include "common/threadpool.hh"

#endif // PARGPU_THREADING_HH
