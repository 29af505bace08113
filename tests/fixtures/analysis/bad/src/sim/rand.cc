// Fixture: the C library's global RNG (rule: rand).
#include <cstdlib>

namespace pargpu
{

int
jitterTexel(int n)
{
    return std::rand() % n;
}

} // namespace pargpu
