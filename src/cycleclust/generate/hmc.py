"""Metropolis sampler with a cyclic drift between the landscape's wells.

The proposal adds isotropic Gaussian noise plus a drift of fixed magnitude
aimed from the last accepted position at the target well; an accepted move
into the capture disk of that well advances the target to the next one in
cyclic order. This gives a metastable trajectory with rare directed hops.

Each step runs in Python floats: the position, the offset to the target,
the drift and the energies are scalars, and the noise and uniforms are read
from lists, one block of steps at a time. The only numpy calls per step are
one `np.exp` over the potential's term exponents, the acceptance test's
`np.exp` and, after an accepted move, the offset's norm. Both exps stay
numpy's, because `math.exp` rounds differently on about 5 % of arguments.
The norm stays the square root of a numpy dot product, as `np.linalg.norm`
computes it: `math.hypot` and `sqrt(x*x + y*y)` round differently, and the
norm scales the drift.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .potentials import Potential

PROPOSAL_STD = 0.25
CAPTURE_RADIUS = 0.5
# steps whose draws and positions are held as Python floats at once: about
# 200 bytes a step, where the trajectory itself takes 16
BLOCK_STEPS = 1024


@dataclass(frozen=True)
class Trajectory:
    points: np.ndarray
    seed: int
    params: dict


def hmc_with_drift(pot: Potential, x0, beta: float, n_steps: int,
                   drift_mag: float, seed: int) -> Trajectory:
    """Sample n_steps positions from x0; deterministic for a fixed seed.

    A proposal is accepted when u <= exp(-beta * energy_increase). The
    target starts at well 0 and advances only on accepted moves; the drift
    is zero while the last accepted position sits on the target.
    """
    if not 0 < beta < math.inf:  # also refuses NaN
        raise ValueError(f"beta must be finite and positive, got {beta!r}")
    if not 0 <= drift_mag < math.inf:
        raise ValueError(f"drift_mag must be finite and not negative, got {drift_mag!r}")
    if not isinstance(n_steps, numbers.Integral) or n_steps < 2:
        raise ValueError(f"n_steps must be an integer of at least 2, got {n_steps!r}")
    try:
        start = np.asarray(x0, dtype=float)
    except (TypeError, ValueError):
        start = None
    if start is None or start.shape != (2,) or not np.isfinite(start).all():
        raise ValueError(f"x0 must be two finite numbers, got {x0!r}")
    wells = np.asarray(pot.minima, dtype=float).tolist()
    if not wells:
        raise ValueError(f"potential {pot.kind!r} has no wells for the drift to aim at")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, PROPOSAL_STD, size=(n_steps, 2))
    uniforms = rng.uniform(0.0, 1.0, size=n_steps)
    exponents, total = pot.exponents, pot.total
    pair = np.empty(2)

    def aim(well, x, y):
        """Offset from (x, y) to `well`, and its norm."""
        ox, oy = well[0] - x, well[1] - y
        pair[0], pair[1] = ox, oy
        return ox, oy, math.sqrt(pair.dot(pair))

    pts = np.empty((n_steps, 2))
    pts[0] = start
    x, y = start.tolist()
    target = 0
    ox, oy, norm = aim(wells[target], x, y)
    e_cur = total(np.exp(exponents(x, y)).tolist())
    for lo in range(1, n_steps, BLOCK_STEPS):
        block = slice(lo, lo + BLOCK_STEPS)
        visited = []
        for nx, ny, u in zip(noise[block, 0].tolist(), noise[block, 1].tolist(),
                             uniforms[block].tolist()):
            if norm < 1e-12 or drift_mag == 0.0:
                dx = dy = 0.0
            else:
                dx, dy = drift_mag * ox / norm, drift_mag * oy / norm
            px, py = x + nx + dx, y + ny + dy
            e_new = total(np.exp(exponents(px, py)).tolist())
            log_ratio = -beta * (e_new - e_cur)
            if log_ratio >= 0.0 or u <= np.exp(log_ratio):
                x, y, e_cur = px, py, e_new
                ox, oy, norm = aim(wells[target], x, y)
                if norm <= CAPTURE_RADIUS:
                    target = (target + 1) % len(wells)
                    ox, oy, norm = aim(wells[target], x, y)
            visited.append((x, y))
        pts[block] = visited
    return Trajectory(points=pts, seed=seed,
                      params={"beta": beta, "n_steps": n_steps,
                              "drift_mag": drift_mag})
