// Fixture: an x86 intrinsic outside the batched filter (rule:
// intrinsics).
#include <emmintrin.h>

namespace pargpu
{

__m128
twice(__m128 v)
{
    return _mm_add_ps(v, v);
}

} // namespace pargpu
