/**
 * @file
 * Fundamental scalar types shared by every pargpu subsystem.
 */

#ifndef PARGPU_COMMON_TYPES_HH
#define PARGPU_COMMON_TYPES_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace pargpu
{

/** Simulated clock cycle count (1 GHz baseline clock, Table I). */
using Cycle = std::uint64_t;

/** Simulated physical byte address in GPU memory space. */
using Addr = std::uint64_t;

/** Number of bytes moved across an interface. */
using Bytes = std::uint64_t;

/** Invalid / sentinel address. */
inline constexpr Addr kInvalidAddr = ~Addr{0};

/**
 * The eight texel addresses of one trilinear sample, in slot order
 * ([0..3] finer level, [4..7] coarser). The compact currency between the
 * filtering layer and the PATU hash table / fetch bookkeeping, which
 * consume only addresses.
 */
using TexelAddrSet = std::array<Addr, 8>;

/**
 * a == b as an inline test that exits at the first differing slot.
 * std::array's operator== on the 64-byte set compiles to a libc memcmp
 * call, while two distinct footprints almost always differ in slot 0.
 */
inline bool
sameAddrSet(const TexelAddrSet &a, const TexelAddrSet &b)
{
    for (std::size_t k = 0; k < a.size(); ++k) {
        if (a[k] != b[k])
            return false;
    }
    return true;
}

} // namespace pargpu

#endif // PARGPU_COMMON_TYPES_HH
