/**
 * @file
 * Counts a trace's tile-stream participants: every participant of a
 * draw's stream records one sim/tiles span, and the stream's owner one
 * sim/tiles.in_flight sample per draw. More spans than samples means
 * some draw had helpers.
 */

#ifndef PARGPU_TESTS_TILE_SPANS_HH
#define PARGPU_TESTS_TILE_SPANS_HH

#include <cstddef>
#include <sstream>

#include "common/json.hh"
#include "common/tracing.hh"

namespace pargpu::test
{

struct TileSpans
{
    std::size_t spans = 0; ///< sim/tiles: one per participant and draw.
    std::size_t draws = 0; ///< sim/tiles.in_flight: one per busy draw.
};

/** Tally the buffered trace events. */
inline TileSpans
countTileSpans()
{
    std::ostringstream os;
    trace::Tracing::writeJson(os);
    const Json doc = Json::parse(os.str());
    TileSpans n;
    for (const Json &e : doc["traceEvents"].items()) {
        if (e["cat"].str() != "sim")
            continue;
        if (e["name"].str() == "tiles")
            ++n.spans;
        else if (e["name"].str() == "tiles.in_flight")
            ++n.draws;
    }
    return n;
}

} // namespace pargpu::test

#endif // PARGPU_TESTS_TILE_SPANS_HH
