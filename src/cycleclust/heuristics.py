"""Primal heuristics and the exhaustive oracle for cycle clusterings.

The heuristics share one gain formula, `_gains`; exchange and repair read
it through `_move_gains`, the n x m table of single-bin moves.
"""

from __future__ import annotations

import itertools

import numpy as np

from .clustering import DEFAULT_ALPHA, CycleClustering, check_alpha, objective
from .errors import (
    DimensionMismatchError,
    InvalidClusterCountError,
    InvalidClusteringError,
    TooLargeError,
)
from .markov import FlowMatrix

BRUTE_FORCE_GUARD = 10_000_000
IMPROVE_EPS = 1e-12


def _gains(flow, coh, qdiag, alpha: float) -> np.ndarray:
    """Objective gain of putting a bin in each cluster (the last axis), from
    its net flow into and coherence with each cluster (`flow`, `coh`; other
    bins only) and its self-loop `qdiag`."""
    k = np.arange(flow.shape[-1])
    # negative indices wrap: k + 1 - m is k's successor, k - 1 its predecessor
    return flow[..., k + 1 - k.size] - flow[..., k - 1] + alpha * (qdiag + coh)


def _move_gains(d, s, assignment: np.ndarray, m: int, alpha: float) -> np.ndarray:
    """n x m table: the objective change when bin i alone moves to cluster k.

    `d` and `s` are q - q.T and q + q.T. Zero in each bin's own cluster;
    cluster sizes are not checked.
    """
    rows, own = np.arange(assignment.size), assignment - 1
    members = assignment[:, None] == np.arange(1, m + 1)
    flow, coh = d @ members, s @ members
    loops = np.diag(s)  # twice each bin's self-loop
    coh[rows, own] -= loops  # a bin's coherence with its own cluster leaves itself out
    gains = _gains(flow, coh, loops[:, None] / 2, alpha)
    return gains - gains[rows, own][:, None]


def greedy_heuristic(W: FlowMatrix, m: int, alpha: float = DEFAULT_ALPHA) -> CycleClustering:
    """Construct a feasible clustering by best-gain insertion.

    Bin 1 seeds cluster 1; the remaining bins are placed in order of
    decreasing stationary mass, each into the cluster that maximizes the
    partial objective against the bins placed so far. Empty clusters are
    repaired afterwards by relocating the cheapest movable bin.
    """
    check_alpha(alpha)
    n = W.n
    if m < 1 or m > n:
        raise InvalidClusteringError(f"need 1 <= m <= n, got m={m}, n={n}")
    q = W.entries
    d, s = q - q.T, q + q.T
    order = np.lexsort((np.arange(n), -W.bin_mass))
    assignment = np.zeros(n, dtype=int)
    assignment[0] = 1
    # row k sums, for every bin, its net flow into and coherence with the
    # bins placed in cluster k so far
    flow, coh = np.zeros((m, n)), np.zeros((m, n))
    flow[0], coh[0] = d[:, 0], s[:, 0]
    for i in order[order != 0]:
        k = int(np.argmax(_gains(flow[:, i], coh[:, i], q[i, i], alpha)))
        assignment[i] = k + 1
        flow[k] += d[:, i]
        coh[k] += s[:, i]
    assignment = _repair_empty(d, s, assignment, m, alpha)
    return CycleClustering(n=n, m=m, assignment=assignment)


def _repair_empty(d, s, assignment: np.ndarray, m: int, alpha: float) -> np.ndarray:
    """Move one bin into each empty cluster, losing as little as possible.

    Bin 1 never moves; bins alone in their cluster never move, so no move
    empties a cluster. Of equal moves, the lowest bin's is taken.
    """
    assignment = assignment.copy()
    for k in np.flatnonzero(np.bincount(assignment, minlength=m + 1)[1:] == 0):
        movable = np.bincount(assignment, minlength=m + 1)[assignment] >= 2
        movable[0] = False
        if not movable.any():
            raise InvalidClusteringError(f"cannot repair empty cluster {k + 1}")
        column = np.where(movable, _move_gains(d, s, assignment, m, alpha)[:, k], -np.inf)
        assignment[int(np.argmax(column))] = k + 1
    return assignment


def rounding_heuristic(mip, values: np.ndarray, W: FlowMatrix) -> CycleClustering | None:
    """Round relaxed assignment values to the largest component per bin.

    `values` is in the model's column order. Returns None when repair cannot
    restore feasibility.
    """
    n, m = mip.n, mip.m
    x = np.asarray(values)[: n * m].reshape(n, m)  # x_column order
    assignment = np.argmax(x, axis=1) + 1
    q = W.entries
    try:
        assignment = _repair_empty(q - q.T, q + q.T, assignment, m, mip.alpha)
    except InvalidClusteringError:
        return None
    return CycleClustering(n=n, m=m, assignment=assignment)


def exchange_improvement(W: FlowMatrix, c: CycleClustering,
                         alpha: float = DEFAULT_ALPHA) -> CycleClustering:
    """Steepest-ascent single-bin relocation until no move improves.

    Each step applies the best strictly improving move that keeps all
    clusters non-empty; the objective is non-decreasing and the search
    terminates because it strictly increases over a finite space.
    """
    check_alpha(alpha)
    if c.n != W.n:
        raise DimensionMismatchError(f"clustering has {c.n} bins, matrix {W.n}")
    n, m = c.n, c.m
    q = W.entries
    d, s = q - q.T, q + q.T
    assignment = c.assignment.copy()
    while True:
        delta = _move_gains(d, s, assignment, m, alpha)
        delta[np.bincount(assignment, minlength=m + 1)[assignment] < 2] = -np.inf
        b, t = divmod(int(np.argmax(delta)), m)
        if delta[b, t] <= IMPROVE_EPS:
            return CycleClustering(n=n, m=m, assignment=assignment)
        assignment[b] = t + 1


def brute_force(W: FlowMatrix, m: int, alpha: float = DEFAULT_ALPHA):
    """Exhaustive optimum over surjective assignments with bin 1 in cluster 1.

    Ties resolve to the lexicographically smallest assignment vector.
    Refuses m outside [3, n], and m**(n-1) above 10^7.
    """
    check_alpha(alpha)
    n = W.n
    if m < 3 or m > n:
        raise InvalidClusterCountError(m, n)
    size = m ** (n - 1)
    if size > BRUTE_FORCE_GUARD:
        raise TooLargeError(size, BRUTE_FORCE_GUARD)
    q = W.entries
    phi = (np.arange(m) + 1) % m
    best_assignment = None
    best_total = -np.inf
    labels = np.empty(n, dtype=int)
    labels[0] = 1
    for tail in itertools.product(range(1, m + 1), repeat=n - 1):
        labels[1:] = tail
        counts = np.bincount(labels, minlength=m + 1)
        if np.any(counts[1:] == 0):
            continue
        x = (labels[:, None] == np.arange(1, m + 1)[None, :]).astype(float)
        w_bar = x.T @ q @ x
        flow = float(w_bar[np.arange(m), phi].sum() - w_bar[phi, np.arange(m)].sum())
        coh = float(np.trace(w_bar))
        total = flow + alpha * coh
        if total > best_total:
            best_total = total
            best_assignment = labels.copy()
    clustering = CycleClustering(n=n, m=m, assignment=best_assignment)
    return clustering, objective(W, clustering, alpha)
