// Fixture: an owning raw pointer (rule: raw-new).
#include <memory>

namespace pargpu
{

std::unique_ptr<int>
makeCounter()
{
    return std::unique_ptr<int>(new int(0));
}

} // namespace pargpu
