// Fixture: the library reading the environment (rule: getenv).
#include <cstdlib>

namespace pargpu
{

const char *
threadsKnob()
{
    return std::getenv("PARGPU_THREADS");
}

} // namespace pargpu
