"""Shared test helpers: seeded instances and independent slow oracles."""

from __future__ import annotations

import numpy as np

from cycleclust.markov import (
    FlowMatrix,
    flow_matrix,
    stationary_distribution,
    validate_stochastic,
)


def random_chain(n: int, seed: int, floor: float = 0.05):
    """Dense random chain: (P, pi, W). The floor keeps it irreducible."""
    rng = np.random.default_rng(seed)
    raw = rng.random((n, n)) + floor
    P = validate_stochastic(raw / raw.sum(axis=1, keepdims=True))
    pi = stationary_distribution(P)
    return P, pi, flow_matrix(P, pi)


def fail_first_verify(monkeypatch) -> list:
    """Make the first `SimplexEngine.verify_optimal` call raise
    NumericalFailureError. Returns the log of that failure ("failed") and of
    every later `solve_cold` call ("cold"), in order."""
    from cycleclust.errors import NumericalFailureError
    from cycleclust.simplex import SimplexEngine

    events = []
    verify, cold = SimplexEngine.verify_optimal, SimplexEngine.solve_cold

    def flaky_verify(self):
        if not events:
            events.append("failed")
            raise NumericalFailureError("forced failure")
        return verify(self)

    def logged_cold(self):
        if events:
            events.append("cold")
        return cold(self)

    monkeypatch.setattr(SimplexEngine, "verify_optimal", flaky_verify)
    monkeypatch.setattr(SimplexEngine, "solve_cold", logged_cold)
    return events


def random_clustering(n: int, m: int, rng) -> np.ndarray:
    """Surjective assignment labels, uniform over a simple construction."""
    labels = np.empty(n, dtype=int)
    labels[:m] = rng.permutation(m) + 1
    labels[m:] = rng.integers(1, m + 1, size=n - m)
    return labels[rng.permutation(n)]


def loop_coherence(w: np.ndarray, bins) -> float:
    """Direct double-loop summation over 1-based bin labels."""
    total = 0.0
    for i in bins:
        for j in bins:
            total += w[i - 1][j - 1]
    return total


def loop_net_flow(w: np.ndarray, bins_a, bins_b) -> float:
    total = 0.0
    for i in bins_a:
        for j in bins_b:
            total += w[i - 1][j - 1] - w[j - 1][i - 1]
    return total


def loop_objective(w: np.ndarray, labels, m: int, alpha: float):
    """(flow, coherence, total) by direct summation over consecutive pairs."""
    clusters = [[i + 1 for i in range(len(labels)) if labels[i] == k]
                for k in range(1, m + 1)]
    coh = sum(loop_coherence(w, c) for c in clusters)
    flow = 0.0
    if m >= 3:
        for k in range(m):
            flow += loop_net_flow(w, clusters[k], clusters[(k + 1) % m])
    return flow, coh, flow + alpha * coh


def balanced_flow_matrix(n: int, seed: int) -> FlowMatrix:
    """Random flow matrix normalized through a chain so balance holds."""
    _, _, w = random_chain(n, seed)
    return w
