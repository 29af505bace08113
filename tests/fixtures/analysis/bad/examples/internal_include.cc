// Fixture: an API consumer reaching into src/ (rule: internal-include).
#include "sim/pipeline.hh"
