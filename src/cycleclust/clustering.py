"""Cycle clusterings and the weighted net-flow/coherence objective, read off
the clustering's `ProjectedMatrix`, whose methods hold the cycle formula."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidClusteringError
from .markov import FlowMatrix, ProjectedMatrix, project

DEFAULT_ALPHA = 0.001


def check_alpha(alpha: float) -> None:
    """Refuse a coherence weight that is not finite and positive."""
    if not 0 < alpha < math.inf:  # also refuses NaN
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")


def successor(k: int, m: int) -> int:
    """Next cluster in cyclic order; 1-based, wrapping m -> 1."""
    return k % m + 1


def predecessor(k: int, m: int) -> int:
    return (k - 2) % m + 1


@dataclass(frozen=True)
class CycleClustering:
    """Surjective assignment of n bins onto m cyclically ordered clusters.

    ``assignment[i]`` is the 1-based cluster of bin ``i + 1``; the cyclic
    order is the label order with successor m -> 1.
    """

    n: int
    m: int
    assignment: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=int)
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)
        if self.m < 1 or self.n < self.m:
            raise InvalidClusteringError(f"need n >= m >= 1, got n={self.n}, m={self.m}")
        if a.shape != (self.n,):
            raise InvalidClusteringError(
                f"assignment has shape {a.shape}, expected ({self.n},)"
            )
        if a.size and (a.min() < 1 or a.max() > self.m):
            raise InvalidClusteringError("cluster labels must lie in 1..m")
        present = np.bincount(a, minlength=self.m + 1)[1:]
        if np.any(present == 0):
            empty = int(np.nonzero(present == 0)[0][0]) + 1
            raise InvalidClusteringError(f"cluster {empty} is empty")

    def members(self, k: int) -> np.ndarray:
        """1-based bins of cluster k, ascending."""
        return np.nonzero(self.assignment == k)[0] + 1

    def clusters(self) -> list[np.ndarray]:
        return [self.members(k) for k in range(1, self.m + 1)]


@dataclass(frozen=True)
class ObjectiveValue:
    total: float
    flow_part: float
    coherence_part: float
    alpha: float

    @classmethod
    def of(cls, p: ProjectedMatrix, alpha: float) -> "ObjectiveValue":
        """Value of the clustering that `p` is the projection onto."""
        flow, coh = p.cycle_flow(), p.coherence()
        return cls(total=flow + alpha * coh, flow_part=flow, coherence_part=coh, alpha=alpha)


def objective(W: FlowMatrix, c: CycleClustering, alpha: float = DEFAULT_ALPHA) -> ObjectiveValue:
    """Total net flow around the cycle plus alpha-weighted coherence.

    For m <= 2 the flow part is identically zero (the antisymmetric part of
    any 2x2 projection cancels around the cycle).
    """
    check_alpha(alpha)
    return ObjectiveValue.of(project(W, c), alpha)


def canonicalize(c: CycleClustering) -> CycleClustering:
    """Rotate cluster labels so that bin 1 lands in cluster 1.

    Rotation preserves the cyclic order, hence the objective.
    """
    r = int(c.assignment[0])
    if r == 1:
        return c
    rotated = (c.assignment - r) % c.m + 1
    return CycleClustering(n=c.n, m=c.m, assignment=rotated)


def reflect(c: CycleClustering) -> CycleClustering:
    """Reverse the cyclic order, keeping cluster 1 fixed.

    Negates the flow part of the objective and preserves coherence.
    """
    a = c.assignment
    reflected = np.where(a == 1, 1, c.m + 2 - a)
    return CycleClustering(n=c.n, m=c.m, assignment=reflected)
