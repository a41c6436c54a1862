"""Metropolis sampler with a cyclic drift between the landscape's wells.

The proposal adds isotropic Gaussian noise plus a drift of fixed magnitude
aimed from the last accepted position at the target well; an accepted move
into the capture disk of that well advances the target to the next one in
cyclic order. This gives a metastable trajectory with rare directed hops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import Potential

PROPOSAL_STD = 0.25
CAPTURE_RADIUS = 0.5


@dataclass(frozen=True)
class Trajectory:
    points: np.ndarray
    seed: int
    params: dict


def hmc_with_drift(pot: Potential, x0, beta: float, n_steps: int,
                   drift_mag: float, seed: int) -> Trajectory:
    """Sample n_steps positions; deterministic for a fixed seed.

    A proposal is accepted when u <= exp(-beta * energy_increase). The
    target starts at well 0 and advances only on accepted moves; the drift
    is zero while the last accepted position sits on the target.
    """
    if not 0 < beta < math.inf:  # also refuses NaN
        raise ValueError(f"beta must be finite and positive, got {beta!r}")
    if not 0 <= drift_mag < math.inf:
        raise ValueError(f"drift_mag must be finite and not negative, got {drift_mag!r}")
    if n_steps < 2:
        raise ValueError("need at least two steps")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, PROPOSAL_STD, size=(n_steps, 2))
    uniforms = rng.uniform(0.0, 1.0, size=n_steps)
    wells = np.asarray(pot.minima, dtype=float)
    target = 0
    pts = np.empty((n_steps, 2))
    pts[0] = np.asarray(x0, dtype=float)
    offset = wells[target] - pts[0]
    norm = float(np.linalg.norm(offset))
    e_cur = float(pot.energy(pts[0]))
    for i in range(1, n_steps):
        if norm < 1e-12 or drift_mag == 0.0:
            drift = np.zeros(2)
        else:
            drift = drift_mag * offset / norm
        proposal = pts[i - 1] + noise[i] + drift
        e_new = float(pot.energy(proposal))
        log_ratio = -beta * (e_new - e_cur)
        if log_ratio >= 0.0 or uniforms[i] <= np.exp(log_ratio):
            pts[i] = proposal
            e_cur = e_new
            offset = wells[target] - proposal
            norm = float(np.linalg.norm(offset))
            if norm <= CAPTURE_RADIUS:
                target = (target + 1) % len(wells)
                offset = wells[target] - proposal
                norm = float(np.linalg.norm(offset))
        else:
            pts[i] = pts[i - 1]
    return Trajectory(points=pts, seed=seed,
                      params={"beta": beta, "n_steps": n_steps,
                              "drift_mag": drift_mag})
