"""Nine-bin fixture: a weak directed 3-cycle between hub bins 1, 2, 3.

Each hub carries two reversible satellite bins; self-loops top every row up
so the stationary weight is uniform. All entries are integer multiples of
1/180, so balance identities hold to machine precision.
"""

from __future__ import annotations

import numpy as np

from ..markov import FlowMatrix

DENOMINATOR = 180
FORWARD = 3    # 0.15/9, hub cycle 1 -> 2 -> 3 -> 1
BACKWARD = 1   # 0.05/9, reverse direction
SATELLITE = 4  # 0.2/9 each way on every hub-satellite link
HUB_LOOP = 8   # brings hub rows up to 20/180 = 1/9
SAT_LOOP = 16  # same for satellite rows

_SATELLITES = {1: (4, 5), 2: (6, 7), 3: (8, 9)}


def triangle_numerators() -> np.ndarray:
    """Integer numerators over 1/180 of the fixture flow matrix."""
    s = np.zeros((9, 9), dtype=int)
    for hub in (1, 2, 3):
        nxt = hub % 3 + 1
        s[hub - 1, nxt - 1] = FORWARD
        s[nxt - 1, hub - 1] = BACKWARD
        s[hub - 1, hub - 1] = HUB_LOOP
        for sat in _SATELLITES[hub]:
            s[hub - 1, sat - 1] = SATELLITE
            s[sat - 1, hub - 1] = SATELLITE
            s[sat - 1, sat - 1] = SAT_LOOP
    return s


def triangle_fixture() -> FlowMatrix:
    return FlowMatrix(triangle_numerators() / float(DENOMINATOR))
