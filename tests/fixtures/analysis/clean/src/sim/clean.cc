// Fixture: the approved counterparts of every determinism rule's target —
// ordered iteration, Cycle counters instead of host clocks, explicit
// RNG seeding, dense worker indices, value keys, plain mul-add, state
// owned by an object, and per-index shard lookup inside the task.
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace pargpu
{

using Cycle = std::uint64_t;

class TextureUnit;
struct ThreadPool
{
    static void run(std::size_t n, std::size_t chunk, void (*fn)(void *));
};

struct FrameClock
{
    Cycle now = 0; ///< Simulated time: advanced by the model, not read
                   ///< from the host.
};

std::uint64_t
sumTileCycles(const std::map<int, std::uint64_t> &cycles_by_tile)
{
    std::uint64_t total = 0;
    for (const auto &kv : cycles_by_tile)
        total += kv.second;
    return total;
}

float
blendWeight(float a, float b, float c)
{
    return a * b + c;
}

void
filterAllTiles(std::vector<TextureUnit *> &tus)
{
    ThreadPool::run(4, 1, [&tus](std::size_t c) {
        (void)*tus[c]; // Each worker owns exactly its cluster's shard.
    });
}

} // namespace pargpu
