"""From trajectories to transition matrices: bin centers and soft memberships."""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateRowError, TooFewPointsError
from ..markov import TransitionMatrix, validate_stochastic
from .hmc import Trajectory


def _distinct_rows(points: np.ndarray) -> np.ndarray:
    """Unique rows, keeping first occurrences in trajectory order."""
    _, first = np.unique(points, axis=0, return_index=True)
    return points[np.sort(first)]


def select_bin_centers(traj, n: int) -> np.ndarray:
    """Greedy farthest-point choice of n centers from a trajectory.

    Starts at the first trajectory point and repeatedly takes the point
    farthest from the chosen set: a 2-approximation of the subset that
    minimizes the fill distance.
    """
    if n < 1:
        raise ValueError("need at least one center")
    points = traj.points if isinstance(traj, Trajectory) else np.asarray(traj, float)
    distinct = _distinct_rows(points)
    if n > len(distinct):
        raise TooFewPointsError(len(distinct), n)
    chosen = [0]
    dist = np.linalg.norm(distinct - distinct[0], axis=1)
    for _ in range(n - 1):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(distinct - distinct[nxt], axis=1))
    return distinct[chosen]


def fill_distance(points, centers) -> float:
    """Largest distance from any point to its nearest center."""
    p = np.asarray(points, float)
    c = np.asarray(centers, float)
    d2 = ((p[:, None, :] - c[None, :, :]) ** 2).sum(axis=-1)
    return float(np.sqrt(d2.min(axis=1).max()))


def rbf_membership(x, centers) -> np.ndarray:
    """Normalized Gaussian memberships exp(-|x - c_i|^2) / sum_k exp(...).

    Accepts a single point (returns a vector) or a batch of points
    (returns a matrix with one row per point). Computed with the usual
    max-shift so distant centers underflow instead of overflowing.
    """
    c = np.asarray(centers, dtype=float)
    p = np.asarray(x, dtype=float)
    single = p.ndim == 1
    if single:
        p = p[None, :]
    d2 = ((p[:, None, :] - c[None, :, :]) ** 2).sum(axis=-1)
    logits = -d2
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    phi = e / e.sum(axis=1, keepdims=True)
    return phi[0] if single else phi


def hmc_transition_matrix(traj: Trajectory, centers, lag: int = 1) -> TransitionMatrix:
    """Soft-membership transition estimate at the given lag.

    p_ij = sum_k phi_i(x_k) phi_j(x_{k+lag}) / sum_k phi_i(x_k), with k
    running over 0 .. N-1-lag. Row sums are 1 by the membership
    normalization.
    """
    if lag < 1:
        raise ValueError("lag must be at least 1")
    pts = traj.points
    if len(pts) <= lag:
        raise TooFewPointsError(len(pts), lag + 1)
    phi = rbf_membership(pts, centers)
    heads = phi[: len(pts) - lag]
    tails = phi[lag:]
    denom = heads.sum(axis=0)
    worst = int(np.argmin(denom))
    if denom[worst] < 1e-300:
        raise DegenerateRowError(worst, float(denom[worst]))
    p = (heads.T @ tails) / denom[:, None]
    return validate_stochastic(p)
