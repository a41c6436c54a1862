"""Transition-matrix algebra: validation, stationary vectors, flows, coherence.

The matrix types check their input and keep a read-only float copy of it.
`ProjectedMatrix` holds the cycle formula that `clustering.objective` reads.

All bin labels on the public API are 1-based, matching the file formats and
the clustering conventions; array indices are internal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BalanceViolationError,
    DimensionMismatchError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonUniqueStationaryError,
    NotConvergedError,
    OverlappingSetsError,
    RowSumViolationError,
)

ROW_SUM_TOL = 1e-9
BALANCE_TOL = 1e-8
TOTAL_MASS_TOL = 1e-8

_SECOND_START_SEED = 7151  # fixed alternate start for the uniqueness probe


def _frozen(a) -> np.ndarray:
    """A read-only float copy of `a`."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _square_nonnegative(raw, name: str, not_square: str) -> np.ndarray:
    """A read-only float copy of `raw`, which must be a square, non-empty,
    finite and nonnegative matrix; `name` names it in the errors, and the
    shape error is `not_square` formatted with the shape."""
    a = _frozen(raw)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatchError(not_square.format(a.shape))
    if not np.all(np.isfinite(a)):
        raise NonFiniteEntryError(f"{name} has non-finite entries")
    neg = np.argwhere(a < 0)
    if neg.size:
        i, j = neg[0]
        raise NegativeEntryError(int(i), int(j), float(a[i, j]))
    return a


@dataclass(frozen=True)
class TransitionMatrix:
    """Right-stochastic matrix of conditional transition probabilities.

    Never renormalizes: a row whose sum is off 1 by more than ROW_SUM_TOL is
    an error.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = _square_nonnegative(self.entries, "matrix", "expected a square matrix, got shape {}")
        sums = a.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            i = int(bad[0])
            raise RowSumViolationError(i, float(sums[i]))
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class StationaryDistribution:
    """Probability vector fixed under the left action of its chain."""

    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi", _frozen(self.pi))

    @property
    def n(self) -> int:
        return self.pi.shape[0]


@dataclass(frozen=True)
class FlowMatrix:
    """Unconditional transition probabilities q_ij = pi_i * p_ij.

    Row sums equal column sums (enforced on construction); this balance is
    what makes the antisymmetric part of any projection have zero row and
    column sums.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = _square_nonnegative(self.entries, "flow matrix", "flow matrix must be square, got {}")
        rows = a.sum(axis=1)
        cols = a.sum(axis=0)
        gap = np.abs(rows - cols)
        worst = int(np.argmax(gap))
        if gap[worst] > BALANCE_TOL:
            raise BalanceViolationError(worst, float(rows[worst]), float(cols[worst]))
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.entries.sum())

    @property
    def bin_mass(self) -> np.ndarray:
        """Row sums; recovers the stationary vector when the total mass is 1."""
        return self.entries.sum(axis=1)


@dataclass(frozen=True)
class ProjectedMatrix:
    """Cluster-aggregated unconditional probabilities, in cyclic cluster
    order: entry (k, l) is the mass flowing from cluster k + 1 to l + 1.

    The paper's objective is read off here: the net flow around the cycle
    and the coherence, each summed in cluster order with Python floats.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen(self.entries))

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    def delta(self) -> np.ndarray:
        """Antisymmetric part; off-diagonal entries are pairwise net flows."""
        return self.entries - self.entries.T

    def cycle_flows(self) -> list[float]:
        """Net flow from each cluster into its successor, the last cluster's
        into the first."""
        p = self.entries.tolist()
        m = self.m
        return [p[k][(k + 1) % m] - p[(k + 1) % m][k] for k in range(m)]

    def cycle_flow(self) -> float:
        """The cycle flows summed; exactly zero for m <= 2, where they cancel."""
        flow = 0.0
        for f in self.cycle_flows():
            flow += f
        return flow

    def coherence(self) -> float:
        """Mass that stays inside its cluster: the diagonal summed."""
        coh = 0.0
        for k in range(self.m):
            coh += float(self.entries[k, k])
        return coh


def validate_stochastic(raw) -> TransitionMatrix:
    """`TransitionMatrix(raw)`: a checked, read-only copy of `raw`."""
    return TransitionMatrix(raw)


def _power_iterate(a: np.ndarray, v: np.ndarray, tol: float, max_iter: int):
    """Left power iteration, testing the average of consecutive iterates.

    Averaging two iterates damps period-2 oscillation, so chains whose only
    obstruction to convergence is a -1 eigenvalue still settle.
    """
    for _ in range(max_iter):
        w = v @ a
        u = 0.5 * (v + w)
        total = u.sum()
        if total <= 0.0:
            return None
        u = u / total
        if np.max(np.abs(u @ a - u)) <= tol:
            return u
        v = w / w.sum()
    return None


def stationary_distribution(P: TransitionMatrix, tol: float = 1e-10,
                            max_iter: int = 100_000) -> StationaryDistribution:
    """Stationary vector by left power iteration from the uniform start.

    A second, seeded random start guards against silently returning one of
    several fixed points: if the two runs disagree by more than 100*tol the
    chain's stationary distribution is not unique.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = P.entries
    n = P.n
    first = _power_iterate(a, np.full(n, 1.0 / n), tol, max_iter)
    if first is None:
        raise NotConvergedError(max_iter)
    rng = np.random.default_rng(_SECOND_START_SEED)
    start = rng.random(n) + 0.1
    start /= start.sum()
    second = _power_iterate(a, start, tol, max_iter)
    if second is None:
        raise NotConvergedError(max_iter)
    diff = float(np.max(np.abs(first - second)))
    if diff > 100.0 * tol:
        raise NonUniqueStationaryError(diff)
    return StationaryDistribution(first)


def flow_matrix(P: TransitionMatrix, pi: StationaryDistribution) -> FlowMatrix:
    """Unconditional flow matrix diag(pi) @ P."""
    if pi.n != P.n:
        raise DimensionMismatchError(
            f"stationary vector has length {pi.n}, matrix is {P.n}x{P.n}"
        )
    w = pi.pi[:, None] * P.entries
    fm = FlowMatrix(w)
    if abs(fm.total_mass - 1.0) > TOTAL_MASS_TOL:
        raise BalanceViolationError(-1, fm.total_mass, 1.0)
    return fm


def _label_indices(n: int, bins) -> np.ndarray:
    labels = [int(b) for b in bins]
    idx = np.array(sorted(set(labels)), dtype=int)
    if idx.size and (idx[0] < 1 or idx[-1] > n):
        raise DimensionMismatchError(f"bin labels must lie in 1..{n}")
    if idx.size != len(labels):
        raise DimensionMismatchError("duplicate bin labels")
    return idx - 1


def net_flow(W: FlowMatrix, bins_a, bins_b) -> float:
    """Signed flow imbalance sum(q_ij - q_ji) over i in A, j in B."""
    a = _label_indices(W.n, bins_a)
    b = _label_indices(W.n, bins_b)
    common = set((a + 1).tolist()) & set((b + 1).tolist())
    if common:
        raise OverlappingSetsError(common)
    forward = W.entries[np.ix_(a, b)].sum()
    backward = W.entries[np.ix_(b, a)].sum()
    return float(forward - backward)


def coherence(W: FlowMatrix, bins_a) -> float:
    """Unconditional probability of staying inside the set."""
    a = _label_indices(W.n, bins_a)
    return float(W.entries[np.ix_(a, a)].sum())


def project(W: FlowMatrix, clustering) -> ProjectedMatrix:
    """Aggregate W over a clustering; entry (k, l) is the A_k -> A_l mass.

    Uses the same sorted-submatrix summation as `coherence` and `net_flow`,
    so diagonal entries agree with `coherence` bit for bit.
    """
    if clustering.n != W.n:
        raise DimensionMismatchError(f"clustering has {clustering.n} bins, matrix {W.n}")
    groups = [g - 1 for g in clustering.clusters()]
    return ProjectedMatrix([[W.entries[np.ix_(a, b)].sum() for b in groups] for a in groups])
