/**
 * @file
 * pargpu public API — replay and user-study models.
 *
 * Re-exports the vsync replay model and the user-study score synthesis
 * (Figs. 19-20).
 */

#ifndef PARGPU_REPLAY_HH
#define PARGPU_REPLAY_HH

#include "replay/replay.hh"
#include "replay/userstudy.hh"

#endif // PARGPU_REPLAY_HH
