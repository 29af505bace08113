/**
 * @file
 * Shared gtest entry point for every pargpu test binary.
 *
 * The PARGPU_* environment applies before any test runs
 * (parseEnvironment()), so scripts/check.sh can rerun whole test
 * binaries with, say, PARGPU_TILE_PARALLEL=1 or PARGPU_SIMD=scalar
 * forced; an invalid value stops the binary with the parser's message.
 *
 * Death tests default to the "threadsafe" style: the simulator starts
 * its global thread pool lazily, and a "fast"-style death test forks a
 * process that inherits that pool's locked mutexes but none of its
 * threads, so the child can block forever. The threadsafe style
 * re-executes the binary for each death test instead. A
 * --gtest_death_test_style flag on the command line still wins.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "harness/session.hh"

int
main(int argc, char **argv)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    testing::InitGoogleTest(&argc, argv);
    const pargpu::Status env =
        pargpu::parseEnvironment(pargpu::processEnvironment());
    if (!env.ok())
        pargpu::fatal(env.message);
    return RUN_ALL_TESTS();
}
