/**
 * @file
 * Fixture: names std::vector but does not include <vector>, so it
 * compiles only after a file that does.
 */
#pragma once

#include <cstddef>

inline std::size_t
tileCount(const std::vector<int> &tiles)
{
    return tiles.size();
}
