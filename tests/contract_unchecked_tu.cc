/**
 * @file
 * Helper TU for contract_test compiled with contracts force-disabled:
 * proves the macros are true no-ops in unchecked builds — operands are
 * never evaluated and violations never fire.
 */

#define PARGPU_FORCE_UNCHECKED 1
#include "common/contract.hh"

namespace pargpu_contract_test
{

int
uncheckedEvaluations()
{
    int evals = 0;
    int msg_evals = 0;
    // Every operand has a side effect; none may run in an unchecked TU.
    PARGPU_ASSERT(++evals > 0, "side effect ", ++msg_evals);
    PARGPU_INVARIANT((++evals, true), "side effect");
    PARGPU_CHECK_RANGE(++evals, 0, 100, "side effect");
    return evals + msg_evals;
}

bool
uncheckedViolationSurvives()
{
    // All three violated contracts must compile to nothing: reaching the
    // return statement is the test.
    PARGPU_ASSERT(false, "must not fire");
    PARGPU_INVARIANT(false, "must not fire");
    PARGPU_CHECK_RANGE(42, 0, 1, "must not fire");
    return true;
}

} // namespace pargpu_contract_test
