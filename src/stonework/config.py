"""Size guards.

Every guard is overridable per call; these are the documented defaults.
STONEWORK_GUARD in the environment overrides the frame-size guard.  A
kept value of a site or ring is checked against the guard of each read.
"""

import os

from .errors import InvalidStructure

# Hard cap on the number of elements a constructed frame may have.
FRAME_GUARD = 2 ** 20

# Listing sieve tables (saturate, the Goedel-Dummett site law) is
# exponential in the carrier size; every other test on a site reads its D.
SATURATION_GUARD = 16

# elemental_space materialises the full powerset of its input set.
ELEMENTAL_GUARD = 5

# The free distributive lattice is materialised only up to this many generators.
FREE_DLAT_GUARD = 4


# process-wide override, set by the CLI --guard flag
_frame_guard_override = None


def set_frame_guard_override(value):
    global _frame_guard_override
    _frame_guard_override = value


def frame_guard(override=None):
    if override is not None:
        return override
    if _frame_guard_override is not None:
        return _frame_guard_override
    env = os.environ.get("STONEWORK_GUARD")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidStructure(f"STONEWORK_GUARD must be an integer, not {env!r}") from None
    return FRAME_GUARD


def guards_in_effect(frame_override=None):
    """Snapshot of the active guards, reported in CLI output headers."""
    return {
        "frame_guard": frame_guard(frame_override),
        "saturation_guard": SATURATION_GUARD,
        "elemental_guard": ELEMENTAL_GUARD,
        "free_dlat_guard": FREE_DLAT_GUARD,
    }
