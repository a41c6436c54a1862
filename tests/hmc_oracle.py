"""Slow, independent references for the landscape potentials and the sampler.

`omega3`, `omega4` and `omega6` are the landscapes written out as formulas,
one Gaussian term after another; `energy` evaluates one of them on points.
`hmc_with_drift` is the drifted Metropolis sampler one numpy step at a
time: the proposal and the offset to the target are 2-vectors, and each
step evaluates the formula on the proposal. The package's table potentials
and scalar sampler must give the same energies on point arrays and the same
trajectories, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

X_STAR = 0.5
Y_STAR = 0.5 * math.sqrt(3.0)
PROPOSAL_STD = 0.25
CAPTURE_RADIUS = 0.5


def omega3(x, y):
    return (6 * np.exp(-3 * (x ** 2 + y ** 2))
            - 8 * np.exp(-(x - X_STAR) ** 2 - (y + Y_STAR) ** 2)
            - 8 * np.exp(-(x + X_STAR) ** 2 - (y + Y_STAR) ** 2)
            - 8 * np.exp(-x ** 2 - (y - 1) ** 2))


def omega4(x, y):
    return (4 * np.exp(-3 * (x ** 2 + y ** 2))
            - 8 * np.exp(-x ** 2 - (y - 1.5) ** 2)
            - 8 * np.exp(-(x - 1) ** 2 - y ** 2)
            - 8 * np.exp(-(x + 1) ** 2 - y ** 2)
            - 8 * np.exp(-x ** 2 - (y + 1.5) ** 2))


def omega6(x, y):
    return (4 * np.exp(-3 * (x ** 2 + y ** 2))
            - 8 * np.exp(-(x - 2 * X_STAR) ** 2 - (y + 2 * Y_STAR) ** 2)
            - 8 * np.exp(-(x + 2 * X_STAR) ** 2 - (y + 2 * Y_STAR) ** 2)
            - 8 * np.exp(-(x + 2 * X_STAR) ** 2 - (y - 2 * Y_STAR) ** 2)
            - 8 * np.exp(-(x - 2 * X_STAR) ** 2 - (y - 2 * Y_STAR) ** 2)
            - 8 * np.exp(-(x + 2) ** 2 - (y - 1) ** 2)
            - 8 * np.exp(-(x - 2) ** 2 - y ** 2))


def flat(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


FORMULAS = {"omega3": omega3, "omega4": omega4, "omega6": omega6, "flat": flat}


def energy(formula, points) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    return formula(p[..., 0], p[..., 1])


def hmc_with_drift(formula, wells, x0, beta: float, n_steps: int,
                   drift_mag: float, seed: int) -> np.ndarray:
    """The trajectory's points; `wells` are the drift targets in order."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, PROPOSAL_STD, size=(n_steps, 2))
    uniforms = rng.uniform(0.0, 1.0, size=n_steps)
    wells = np.asarray(wells, dtype=float)
    target = 0
    pts = np.empty((n_steps, 2))
    pts[0] = np.asarray(x0, dtype=float)
    offset = wells[target] - pts[0]
    norm = float(np.linalg.norm(offset))
    e_cur = float(energy(formula, pts[0]))
    for i in range(1, n_steps):
        if norm < 1e-12 or drift_mag == 0.0:
            drift = np.zeros(2)
        else:
            drift = drift_mag * offset / norm
        proposal = pts[i - 1] + noise[i] + drift
        e_new = float(energy(formula, proposal))
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
    return pts
