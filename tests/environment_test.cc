/**
 * @file
 * Tests for parseEnvironment() (harness/environment.cc), driven by
 * EnvMap data rather than the process environment: every variable's
 * accepted and rejected values, unset and empty meaning the default,
 * all-or-nothing application, and the names it ignores.
 */

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/threadpool.hh"
#include "harness/session.hh"
#include "simd/dispatch.hh"

using namespace pargpu;

namespace
{

/** The process-wide defaults parseEnvironment() sets. */
struct Applied
{
    unsigned threads;
    simd::SimdTier tier;

    bool operator==(const Applied &) const = default;
};

Applied
applied()
{
    return {ThreadPool::defaultThreads(), simd::activeTier()};
}

/** What an empty environment applies. */
Applied
defaults()
{
    return {std::max(1u, std::thread::hardware_concurrency()),
            simd::detectTier()};
}

/** Restores the process environment's settings after each test. */
class EnvironmentTest : public testing::Test
{
  protected:
    void
    TearDown() override
    {
        ASSERT_TRUE(parseEnvironment(processEnvironment()).ok());
    }
};

/** An accepted value and what it changes from defaults(). */
struct Accept
{
    const char *name;
    const char *value;
    void (*expect)(Applied &);
};

const Accept kAccepted[] = {
    {"PARGPU_THREADS", "0", [](Applied &) {}},
    {"PARGPU_THREADS", "1", [](Applied &a) { a.threads = 1; }},
    {"PARGPU_THREADS", "7", [](Applied &a) { a.threads = 7; }},
    {"PARGPU_THREADS", "4096", [](Applied &a) { a.threads = 4096; }},
    {"PARGPU_SIMD", "scalar",
     [](Applied &a) { a.tier = simd::SimdTier::Scalar; }},
};

/** A rejected value and the exact message it is rejected with. */
struct Reject
{
    const char *name;
    const char *value;
    const char *message;
};

const Reject kRejected[] = {
    {"PARGPU_THREADS", "abc",
     "PARGPU_THREADS must be a whole number in [0, 4096] (0 or unset: one "
     "per core), got 'abc'"},
    {"PARGPU_THREADS", "3abc",
     "PARGPU_THREADS must be a whole number in [0, 4096] (0 or unset: one "
     "per core), got '3abc'"},
    {"PARGPU_THREADS", "-2",
     "PARGPU_THREADS must be a whole number in [0, 4096] (0 or unset: one "
     "per core), got '-2'"},
    {"PARGPU_THREADS", "4097",
     "PARGPU_THREADS must be a whole number in [0, 4096] (0 or unset: one "
     "per core), got '4097'"},
    {"PARGPU_THREADS", "99999999999",
     "PARGPU_THREADS must be a whole number in [0, 4096] (0 or unset: one "
     "per core), got '99999999999'"},
    {"PARGPU_THREADS", " 3",
     "PARGPU_THREADS must be a whole number in [0, 4096] (0 or unset: one "
     "per core), got ' 3'"},
    {"PARGPU_SIMD", "bogus", "PARGPU_SIMD must be 'scalar', 'sse' or 'avx2'"},
    {"PARGPU_SIMD", "SSE", "PARGPU_SIMD must be 'scalar', 'sse' or 'avx2'"},
    {"PARGPU_SIMD", "avx512", "PARGPU_SIMD must be 'scalar', 'sse' or 'avx2'"},
};

/** A valid map that sets every variable away from its default. */
const EnvMap kNonDefault = {
    {"PARGPU_THREADS", "3"},
    {"PARGPU_SIMD", "scalar"},
};

} // namespace

TEST_F(EnvironmentTest, AcceptedValuesApply)
{
    for (const Accept &c : kAccepted) {
        ASSERT_TRUE(parseEnvironment(kNonDefault).ok());
        const Status st = parseEnvironment({{c.name, c.value}});
        EXPECT_TRUE(st.ok()) << c.name << "=" << c.value << ": "
                             << st.message;
        Applied want = defaults();
        c.expect(want);
        EXPECT_TRUE(applied() == want) << c.name << "=" << c.value;
    }
}

TEST_F(EnvironmentTest, RejectedValuesReportTheVariable)
{
    for (const Reject &c : kRejected) {
        const Status st = parseEnvironment({{c.name, c.value}});
        EXPECT_EQ(st.code, StatusCode::InvalidConfig)
            << c.name << "=" << c.value;
        EXPECT_EQ(st.message, c.message);
    }
}

TEST_F(EnvironmentTest, VectorTiersFollowTheHost)
{
    for (simd::SimdTier t : {simd::SimdTier::Sse, simd::SimdTier::Avx2}) {
        const std::string why = simd::tierUnavailable(t);
        const Status st =
            parseEnvironment({{"PARGPU_SIMD", simd::tierName(t)}});
        if (why.empty()) {
            EXPECT_TRUE(st.ok()) << st.message;
            EXPECT_EQ(simd::activeTier(), t);
        } else {
            EXPECT_EQ(st.code, StatusCode::InvalidConfig);
            EXPECT_EQ(st.message, why);
        }
    }
}

TEST_F(EnvironmentTest, UnsetAndEmptyMeanTheDefault)
{
    ASSERT_TRUE(parseEnvironment(kNonDefault).ok());
    ASSERT_FALSE(applied() == defaults());
    ASSERT_TRUE(parseEnvironment({}).ok());
    EXPECT_TRUE(applied() == defaults());

    ASSERT_TRUE(parseEnvironment(kNonDefault).ok());
    EnvMap empty;
    for (const auto &kv : kNonDefault)
        empty[kv.first] = "";
    ASSERT_TRUE(parseEnvironment(empty).ok());
    EXPECT_TRUE(applied() == defaults());
}

TEST_F(EnvironmentTest, RejectedMapAppliesNothing)
{
    ASSERT_TRUE(parseEnvironment(kNonDefault).ok());
    const Applied before = applied();
    // A valid change and one bad value: the change does not apply.
    for (const char *bad : {"PARGPU_THREADS", "PARGPU_SIMD"}) {
        EnvMap env = {
            {"PARGPU_THREADS", "5"},
            {"PARGPU_SIMD", ""},
        };
        env[bad] = "bogus";
        EXPECT_FALSE(parseEnvironment(env).ok()) << bad;
        EXPECT_TRUE(applied() == before) << bad;
    }
}

TEST_F(EnvironmentTest, EveryBadVariableIsReported)
{
    const Status st = parseEnvironment({
        {"PARGPU_THREADS", "x"},
        {"PARGPU_SIMD", "y"},
    });
    EXPECT_EQ(st.code, StatusCode::InvalidConfig);
    EXPECT_EQ(st.message,
              "PARGPU_THREADS must be a whole number in [0, 4096] (0 or "
              "unset: one per core), got 'x'; PARGPU_SIMD must be "
              "'scalar', 'sse' or 'avx2'");
}

TEST_F(EnvironmentTest, RemovedAndUnknownVariablesAreIgnored)
{
    for (const char *name :
         {"PARGPU_TEXEL_STORAGE", "PARGPU_FILTER_POLICY",
          "PARGPU_TILE_PARALLEL", "PARGPU_CONTRACT_REPORT",
          "PARGPU_UNKNOWN"}) {
        for (const char *value :
             {"linear", "stf_blue", "0", "1", "yes", "bogus"}) {
            const Status st = parseEnvironment({{name, value}});
            EXPECT_TRUE(st.ok()) << name << "=" << value << ": "
                                 << st.message;
            EXPECT_TRUE(applied() == defaults()) << name;
        }
    }
}

TEST(ProcessEnvironmentTest, ReadsOnlyTheParsedVariables)
{
    const char *name = "PARGPU_SIMD";
    const char *old = std::getenv(name);
    const std::string saved = old != nullptr ? old : "";
    ASSERT_EQ(::setenv(name, "x", 1), 0);
    ASSERT_EQ(::setenv("PARGPU_TEXEL_STORAGE", "linear", 1), 0);
    ASSERT_EQ(::setenv("PARGPU_FILTER_POLICY", "stf_blue", 1), 0);
    ASSERT_EQ(::setenv("PARGPU_TILE_PARALLEL", "1", 1), 0);
    const EnvMap env = processEnvironment();
    if (old != nullptr)
        ::setenv(name, saved.c_str(), 1);
    else
        ::unsetenv(name);
    ::unsetenv("PARGPU_TEXEL_STORAGE");
    ::unsetenv("PARGPU_FILTER_POLICY");
    ::unsetenv("PARGPU_TILE_PARALLEL");

    EXPECT_EQ(env.at(name), "x");
    EXPECT_EQ(env.count("PARGPU_TEXEL_STORAGE"), 0u);
    EXPECT_EQ(env.count("PARGPU_FILTER_POLICY"), 0u);
    EXPECT_EQ(env.count("PARGPU_TILE_PARALLEL"), 0u);
    for (const auto &kv : env)
        EXPECT_TRUE(kv.first == "PARGPU_THREADS" ||
                    kv.first == "PARGPU_SIMD")
            << kv.first;
}
