/**
 * @file
 * Contract-subsystem behavior: macros fire on violation in checked
 * builds (this TU forces checks on, so the build type doesn't matter),
 * are zero-evaluation no-ops in unchecked builds (helper TU with checks
 * forced off), and the default handler aborts.
 */

#define PARGPU_FORCE_CHECKED 1
#include "common/contract.hh"

#include <gtest/gtest.h>

using pargpu::contract::ContractViolation;
using pargpu::contract::ScopedFailHandler;

namespace pargpu_contract_test
{
int uncheckedEvaluations();
bool uncheckedViolationSurvives();
} // namespace pargpu_contract_test

namespace
{

TEST(ContractTest, PassingContractsDoNotFire)
{
    ScopedFailHandler guard;
    int n = 3;
    EXPECT_NO_THROW({
        PARGPU_ASSERT(n == 3, "n=", n);
        PARGPU_INVARIANT(n > 0, "n=", n);
        PARGPU_CHECK_RANGE(n, 0, 16, "n in table bounds");
    });
}

TEST(ContractTest, AssertFiresOnViolation)
{
    ScopedFailHandler guard;
    int lod = -2;
    EXPECT_THROW(PARGPU_ASSERT(lod >= 0, "lod=", lod), ContractViolation);
}

TEST(ContractTest, InvariantFiresOnViolation)
{
    ScopedFailHandler guard;
    EXPECT_THROW(PARGPU_INVARIANT(false, "broken state"),
                 ContractViolation);
}

TEST(ContractTest, CheckRangeBoundsAreInclusive)
{
    ScopedFailHandler guard;
    EXPECT_NO_THROW(PARGPU_CHECK_RANGE(0, 0, 16));
    EXPECT_NO_THROW(PARGPU_CHECK_RANGE(16, 0, 16));
    EXPECT_THROW(PARGPU_CHECK_RANGE(-1, 0, 16), ContractViolation);
    EXPECT_THROW(PARGPU_CHECK_RANGE(17, 0, 16), ContractViolation);
    EXPECT_NO_THROW(PARGPU_CHECK_RANGE(0.5f, 0.0f, 1.0f));
    EXPECT_THROW(PARGPU_CHECK_RANGE(1.5f, 0.0f, 1.0f), ContractViolation);
}

TEST(ContractTest, MessageCarriesSiteAndStreamedValues)
{
    ScopedFailHandler guard;
    int aniso = 37;
    try {
        PARGPU_ASSERT(aniso <= 16, "anisotropy N=", aniso, " exceeds max");
        FAIL() << "contract did not fire";
    } catch (const ContractViolation &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("contract_test.cc"), std::string::npos) << what;
        EXPECT_NE(what.find("aniso <= 16"), std::string::npos) << what;
        EXPECT_NE(what.find("anisotropy N=37 exceeds max"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("assert"), std::string::npos) << what;
    }
}

TEST(ContractTest, RangeMessageCarriesValueAndBounds)
{
    ScopedFailHandler guard;
    try {
        PARGPU_CHECK_RANGE(42, 0, 16, "table occupancy");
        FAIL() << "contract did not fire";
    } catch (const ContractViolation &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("value=42"), std::string::npos) << what;
        EXPECT_NE(what.find("range=[0, 16]"), std::string::npos) << what;
        EXPECT_NE(what.find("table occupancy"), std::string::npos) << what;
    }
}

TEST(ContractTest, UncheckedBuildEvaluatesNothing)
{
    // The helper TU's side-effecting operands must never run...
    EXPECT_EQ(pargpu_contract_test::uncheckedEvaluations(), 0);
    // ...and violated contracts must be dead code.
    EXPECT_TRUE(pargpu_contract_test::uncheckedViolationSurvives());
}

#if !defined(__SANITIZE_THREAD__)
TEST(ContractDeathTest, DefaultHandlerAborts)
{
    // Without a test handler a violation must terminate the process.
    EXPECT_DEATH(PARGPU_INVARIANT(false, "fatal by default"),
                 "contract violation");
}
#endif

} // namespace
