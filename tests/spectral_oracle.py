"""A classical spectral baseline for cycle clusterings.

The paper reports that its clusterings outperform spectral analysis of
non-reversible chains, which reads cycles off the phases of a complex
eigenvector (for example Djurdjevac Conrad, Weber & Schütte 2016, "Finding
dominant structures of nonreversible Markov processes", Multiscale Model.
Simul. 14(4)). This is a simple stand-in for those methods: take the right
eigenvector of the largest-modulus eigenvalue of P with a positive
imaginary part and cut its phase into m equal sectors, cluster k the k-th
sector. The cut is tried at 24 rotations around the circle, with the
sectors numbered in both orientations, and the best objective wins.
"""

from __future__ import annotations

import math

import numpy as np

from cycleclust.clustering import CycleClustering, objective
from cycleclust.errors import InvalidClusteringError
from cycleclust.markov import FlowMatrix

ROTATIONS = 24


def phase_clustering(P: np.ndarray, W: FlowMatrix, m: int, alpha: float):
    """(clustering, objective total) of the best phase cut, or None when P
    has only real eigenvalues and so no phase to cut."""
    values, vectors = np.linalg.eig(P)
    rotating = np.flatnonzero(values.imag > 0)
    if not rotating.size:
        return None
    lead = rotating[np.argmax(np.abs(values[rotating]))]
    phase = np.angle(vectors[:, lead])
    best = None
    for r in range(ROTATIONS):
        turned = (phase + 2 * math.pi * r / ROTATIONS) % (2 * math.pi)
        sector = np.minimum((turned / (2 * math.pi / m)).astype(int), m - 1)
        for labels in (sector + 1, m - sector):
            try:
                c = CycleClustering(n=len(phase), m=m, assignment=labels)
            except InvalidClusteringError:  # a sector without states
                continue
            total = objective(W, c, alpha).total
            if best is None or total > best[1]:
                best = (c, total)
    return best
