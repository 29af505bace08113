// Fixture: a header without the per-file Doxygen brief (rule: file-doc).
// A grant for another rule does not excuse it. pargpu-lint: allow(rand)
#pragma once

namespace pargpu
{

int tileCount();

} // namespace pargpu
