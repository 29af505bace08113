// Fixture: a source file pulled in as a header (rule: include-cc).
#include "sim/raster.cc"
