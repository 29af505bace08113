// Fixture: a real violation excused at the use site. The checker must
// honor the inline grant and stay silent.
#include <chrono>
#include <cstdint>

namespace pargpu
{

std::uint64_t
hostTimestampForLogOnly()
{
    // Host time never reaches simulated state here; log header only.
    // pargpu-lint: allow(wall-clock)
    auto t = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(t.time_since_epoch().count());
}

} // namespace pargpu
