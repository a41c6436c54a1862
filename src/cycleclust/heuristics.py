"""Primal heuristics and the exhaustive oracle for cycle clusterings."""

from __future__ import annotations

import itertools

import numpy as np

from .clustering import CycleClustering, objective
from .errors import InvalidClusteringError, TooLargeError
from .markov import FlowMatrix

BRUTE_FORCE_GUARD = 10_000_000
IMPROVE_EPS = 1e-12


def _membership_matrix(assignment: np.ndarray, m: int) -> np.ndarray:
    """m x n boolean matrix; row k flags the bins of cluster k+1."""
    return assignment[None, :] == np.arange(1, m + 1)[:, None]


def _placement_gains(q: np.ndarray, qt: np.ndarray, i: int, mask: np.ndarray,
                     alpha: float, m: int) -> np.ndarray:
    """Objective gain of placing bin i (array index) into each cluster.

    `mask` must not contain bin i itself; already-placed bins only.
    """
    diff = q[i, :] - qt[i, :]
    s = mask @ diff
    coh = mask @ (q[i, :] + qt[i, :])
    phi = (np.arange(m) + 1) % m
    phi_inv = (np.arange(m) - 1) % m
    return s[phi] - s[phi_inv] + alpha * (q[i, i] + coh)


def greedy_heuristic(W: FlowMatrix, m: int, alpha: float = 0.001) -> CycleClustering:
    """Construct a feasible clustering by best-gain insertion.

    Bin 1 seeds cluster 1; the remaining bins are placed in order of
    decreasing stationary mass, each into the cluster that maximizes the
    partial objective against the bins placed so far. Empty clusters are
    repaired afterwards by relocating the cheapest movable bin.
    """
    n = W.n
    if m < 1 or m > n:
        raise InvalidClusteringError(f"need 1 <= m <= n, got m={m}, n={n}")
    q = W.entries
    qt = q.T.copy()
    mass = W.bin_mass
    order = np.lexsort((np.arange(n), -mass))
    assignment = np.zeros(n, dtype=int)
    assignment[0] = 1
    mask = np.zeros((m, n), dtype=bool)
    mask[0, 0] = True
    for i in order:
        if i == 0:
            continue
        gains = _placement_gains(q, qt, int(i), mask, alpha, m)
        k = int(np.argmax(gains))
        assignment[i] = k + 1
        mask[k, i] = True
    assignment = _repair_empty(q, qt, assignment, m, alpha)
    return CycleClustering(n=n, m=m, assignment=assignment)


def _repair_empty(q: np.ndarray, qt: np.ndarray, assignment: np.ndarray,
                  m: int, alpha: float) -> np.ndarray:
    """Move one bin into each empty cluster, losing as little as possible.

    Bin 1 never moves; bins alone in their cluster never move.
    """
    assignment = assignment.copy()
    n = assignment.size
    for k in range(1, m + 1):
        if np.any(assignment == k):
            continue
        sizes = np.bincount(assignment, minlength=m + 1)
        best_bin, best_delta = -1, -np.inf
        for i in range(1, n):
            if sizes[assignment[i]] < 2:
                continue
            mask = _membership_matrix(assignment, m)
            mask[:, i] = False
            gains = _placement_gains(q, qt, i, mask, alpha, m)
            delta = gains[k - 1] - gains[assignment[i] - 1]
            if delta > best_delta:
                best_bin, best_delta = i, delta
        if best_bin < 0:
            raise InvalidClusteringError(f"cannot repair empty cluster {k}")
        assignment[best_bin] = k
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
        assignment = _repair_empty(q, q.T.copy(), assignment, m, mip.alpha)
    except InvalidClusteringError:
        return None
    return CycleClustering(n=n, m=m, assignment=assignment)


def exchange_improvement(W: FlowMatrix, c: CycleClustering,
                         alpha: float = 0.001) -> CycleClustering:
    """Steepest-ascent single-bin relocation until no move improves.

    Each step applies the best strictly improving move that keeps all
    clusters non-empty; the objective is non-decreasing and the search
    terminates because it strictly increases over a finite space.
    """
    q = W.entries
    qt = q.T.copy()
    n, m = c.n, c.m
    assignment = c.assignment.copy()
    phi = (np.arange(m) + 1) % m
    phi_inv = (np.arange(m) - 1) % m
    while True:
        mask = _membership_matrix(assignment, m)
        sizes = mask.sum(axis=1)
        cur = assignment - 1
        s_all = (q - qt) @ mask.T          # n x m
        coh_all = (q + qt) @ mask.T        # n x m
        qdiag = np.diag(q)
        own = coh_all[np.arange(n), cur] - 2.0 * qdiag
        coh_adj = coh_all.copy()
        coh_adj[np.arange(n), cur] = own
        gains = s_all[:, phi] - s_all[:, phi_inv] + alpha * (qdiag[:, None] + coh_adj)
        delta = gains - gains[np.arange(n), cur][:, None]
        delta[np.arange(n), cur] = -np.inf
        movable = sizes[cur] >= 2
        delta[~movable, :] = -np.inf
        flat = int(np.argmax(delta))
        b, t = divmod(flat, m)
        if delta[b, t] <= IMPROVE_EPS:
            return CycleClustering(n=n, m=m, assignment=assignment)
        assignment[b] = t + 1


def brute_force(W: FlowMatrix, m: int, alpha: float = 0.001):
    """Exhaustive optimum over surjective assignments with bin 1 in cluster 1.

    Ties resolve to the lexicographically smallest assignment vector.
    Guarded: refuses when m**(n-1) exceeds 10^7.
    """
    n = W.n
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
