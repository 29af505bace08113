// Fixture: a library writing to stdout (rule: cout).
#include <iostream>

namespace pargpu
{

void
reportFrame(int frame)
{
    std::cout << frame << '\n';
}

} // namespace pargpu
