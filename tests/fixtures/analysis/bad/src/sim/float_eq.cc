// Fixture: exact comparison with a float literal (rule: float-eq).

namespace pargpu
{

bool
isHalfCoverage(float coverage)
{
    return coverage == 0.5f;
}

} // namespace pargpu
