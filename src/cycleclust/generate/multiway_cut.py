"""Encoding of multiway-cut instances as cycle-clustering inputs.

Every undirected edge becomes a symmetric arc pair of half its weight, and
consecutive terminals are joined by one-way arcs of a large weight M, so
separating the terminals around the cycle dominates the objective while
the coherence term prices the cut. Row normalization gives the transition
matrix; its stationary vector is the normalized row-sum vector because the
arc weights are balanced by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..clustering import DEFAULT_ALPHA, check_alpha
from ..errors import (
    DimensionMismatchError,
    InvalidTerminalCountError,
    IsolatedNonTerminalError,
)
from ..markov import StationaryDistribution, validate_stochastic


@dataclass(frozen=True)
class MultiwayCutInstance:
    """Undirected weighted graph with distinguished terminal vertices.

    Vertex labels are 1-based. Terminal-terminal edges are disallowed
    (they only shift the cut objective by a constant), and every
    non-terminal needs positive weighted degree.
    """

    n_vertices: int
    edges: tuple
    terminals: tuple

    def __post_init__(self):
        n = self.n_vertices
        terms = tuple(int(t) for t in self.terminals)
        object.__setattr__(self, "terminals", terms)
        if len(set(terms)) != len(terms):
            raise DimensionMismatchError("terminals must be distinct")
        if any(t < 1 or t > n for t in terms):
            raise DimensionMismatchError(f"terminal labels must lie in 1..{n}")
        term_set = set(terms)
        edges = tuple((int(u), int(v), float(w)) for u, v, w in self.edges)
        object.__setattr__(self, "edges", edges)
        degree = np.zeros(n)
        seen = set()
        for u, v, w in edges:
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise DimensionMismatchError(f"bad edge ({u}, {v})")
            if w < 0:
                raise DimensionMismatchError(f"negative weight on ({u}, {v})")
            if u in term_set and v in term_set:
                raise DimensionMismatchError(
                    f"edge ({u}, {v}) joins two terminals"
                )
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DimensionMismatchError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            degree[u - 1] += w
            degree[v - 1] += w
        for u in range(1, n + 1):
            if u not in term_set and degree[u - 1] <= 0.0:
                raise IsolatedNonTerminalError(u)

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))


def multiway_cut_to_instance(mc: MultiwayCutInstance, alpha: float = DEFAULT_ALPHA):
    """Build (transition matrix, stationary vector, M) for the encoding.

    M = alpha * total edge weight + 1, strictly large enough that any
    optimal clustering must place consecutive terminals in consecutive
    clusters.
    """
    m = len(mc.terminals)
    if m < 3:
        raise InvalidTerminalCountError(m)
    check_alpha(alpha)
    n = mc.n_vertices
    big_m = alpha * mc.total_weight + 1.0
    q = np.zeros((n, n))
    for u, v, w in mc.edges:
        q[u - 1, v - 1] += w / 2.0
        q[v - 1, u - 1] += w / 2.0
    for i, t in enumerate(mc.terminals):
        succ = mc.terminals[(i + 1) % m]
        q[t - 1, succ - 1] += big_m
    row_sums = q.sum(axis=1)
    p = validate_stochastic(q / row_sums[:, None])
    pi = StationaryDistribution(row_sums / row_sums.sum())
    return p, pi, big_m


def cut_weight(mc: MultiwayCutInstance, labels) -> float:
    """Total weight of edges whose endpoints get different labels."""
    lab = np.asarray(labels, dtype=int)
    return float(sum(w for u, v, w in mc.edges if lab[u - 1] != lab[v - 1]))


def min_multiway_cut(mc: MultiwayCutInstance):
    """Exhaustive minimum multiway cut by enumerating non-terminal placements.

    Returns (weight, labels) where labels[v-1] is the terminal-block index
    (1-based) of vertex v. Intended for small oracle-sized instances.
    """
    import itertools

    m = len(mc.terminals)
    n = mc.n_vertices
    term_set = set(mc.terminals)
    others = [v for v in range(1, n + 1) if v not in term_set]
    labels = np.zeros(n, dtype=int)
    for i, t in enumerate(mc.terminals):
        labels[t - 1] = i + 1
    best = (np.inf, None)
    for combo in itertools.product(range(1, m + 1), repeat=len(others)):
        for v, k in zip(others, combo):
            labels[v - 1] = k
        w = cut_weight(mc, labels)
        if w < best[0]:
            best = (w, labels.copy())
    return best
