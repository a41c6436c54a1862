"""LP-based branch and bound over the linearized clustering model.

Best-bound node selection (depth-first behind a config flag), branching on
the most fractional assignment binary, and three primal heuristics on a
fixed schedule: greedy construction once at the root, LP rounding at every
node whose depth is a multiple of five, and single-bin exchange improvement
after every new incumbent. Node re-solves warm-start a dual simplex from
the parent basis; one the deadline interrupts keeps its parent's bound.
With an incumbent at hand, the root LP starts from its basis (a crash start).
Everything bnb hands the engine is in original units: a node's fixings, and
for the crash the incumbent's column values and the rows that define f and
g (`mip.defining_rows`). Scale factors and basis status codes stay inside
`simplex`: a node passes its final basis and statuses to its children
unread.

The open nodes live in one heap for both orders: keyed by parent bound
under best-bound, by newest node id under depth-first. A node whose LP
fails numerically is split blindly on the first binary its bound arrays
leave unfixed; with every binary fixed, those arrays give its clustering.
"""

from __future__ import annotations

import heapq
import math
import numbers
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .clustering import CycleClustering, ObjectiveValue, canonicalize, objective, reflect
from .errors import NumericalFailureError
from .heuristics import exchange_improvement, greedy_heuristic, rounding_heuristic
from .markov import FlowMatrix, ProjectedMatrix, project
from .mip import MipInstance, clustering_from_solution, defining_rows, solution_values
from .simplex import SimplexEngine, StandardLp

PRUNE_TOL = 1e-9
INTEGRALITY_TOL = 1e-6
NODE_SELECTIONS = ("best_bound", "dfs")


@dataclass(frozen=True)
class HeuristicsConfig:
    greedy: bool = True
    rounding: bool = True
    exchange: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, bool):
                raise ValueError(f"heuristics.{f.name} must be a bool, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    gap_tol: float = 1e-6
    time_limit_s: float | None = None
    node_limit: int | None = None
    node_selection: str = "best_bound"  # one of NODE_SELECTIONS
    heuristics: HeuristicsConfig = field(default_factory=HeuristicsConfig)

    def __post_init__(self):
        if self.node_selection not in NODE_SELECTIONS:
            raise ValueError(f"node_selection must be one of {', '.join(NODE_SELECTIONS)}, "
                             f"got {self.node_selection!r}")
        # None is "no limit" for the limits; gap_tol has no such value
        for key in ("gap_tol", "time_limit_s", "node_limit"):
            value = getattr(self, key)
            if value is None and key != "gap_tol":
                continue
            # bool is an int subclass, but True is no setting; None fails below
            if isinstance(value, bool) or not isinstance(value, (numbers.Real, type(None))):
                raise ValueError(f"{key} must be a number, got {value!r}")
            # also refuses NaN, and an integer too large for a float
            if value is None or not 0 <= value <= sys.float_info.max:
                raise ValueError(f"{key} must be finite and not negative, got {value!r}")
        if self.node_limit is not None and not isinstance(self.node_limit, numbers.Integral):
            raise ValueError(f"node_limit must be an integer, got {self.node_limit!r}")
        if not isinstance(self.heuristics, HeuristicsConfig):
            raise ValueError(f"heuristics must be a HeuristicsConfig, got {self.heuristics!r}")


@dataclass
class BnbNode:
    depth: int
    bounds: dict  # column -> (lb, ub), tightenings only
    parent_bound: float
    basis: np.ndarray | None = None
    stat: np.ndarray | None = None
    node_id: int = 0


@dataclass
class SolveResult:
    incumbent: CycleClustering | None
    primal: float | None
    dual_bound: float
    gap: float | None
    nodes: int
    status: str  # optimal | infeasible | time-limit | node-limit | gap-limit
    wall_time: float
    trace: list = field(default_factory=list)


def trivial_upper_bound(W: FlowMatrix, alpha: float) -> float:
    """Every pair contributes its imbalance to at most one cycle edge, and
    coherence is at most the total mass."""
    q = W.entries
    imbalance = np.abs(q - q.T)[np.triu_indices(W.n, k=1)].sum()
    return float(imbalance + alpha * q.sum())


def branch_and_bound(mip: MipInstance, W: FlowMatrix,
                     config: SolverConfig | None = None) -> SolveResult:
    cfg = config or SolverConfig()
    start = time.monotonic()
    deadline = start + cfg.time_limit_s if cfg.time_limit_s is not None else None
    std = None  # the standard form is built by the first node LP
    alpha = mip.alpha
    n, m = mip.n, mip.m
    nx = n * m  # the assignment binaries are the first columns, bin-major

    incumbent: CycleClustering | None = None
    primal = -math.inf
    trace: list = []
    nodes_processed = 0

    # the reflection's cluster k + 1 holds this clustering's cluster flip[k] + 1
    flip = np.r_[0, m - 1:0:-1]

    def better(c: CycleClustering) -> None:
        """Offer `c` and its reflection, each read off one projection. The
        model keeps every consecutive net flow nonnegative; only clusterings
        satisfying that may prune the tree. For m = 3 one of a clustering
        and its reflection always qualifies."""
        nonlocal incumbent, primal
        p = project(W, c)
        reflected = ProjectedMatrix(p.entries[np.ix_(flip, flip)])
        for cand, proj in ((c, p), (reflect(c), reflected)):
            if not all(f >= -1e-12 for f in proj.cycle_flows()):
                continue
            val = ObjectiveValue.of(proj, alpha).total
            if val > primal + 1e-15:
                incumbent = canonicalize(cand)
                primal = val

    def offer(c: CycleClustering | None) -> None:
        """Offer a clustering (None offers nothing); if it improved the
        incumbent, offer the incumbent's exchange improvement too."""
        if c is None:
            return
        before = primal
        better(c)
        if cfg.heuristics.exchange and primal > before:
            better(exchange_improvement(W, incumbent, alpha))

    if cfg.heuristics.greedy:
        offer(greedy_heuristic(W, m, alpha))

    # open nodes: one heap of (key..., node), newest first under dfs (node
    # ids grow with every push), largest parent bound first otherwise
    dfs = cfg.node_selection == "dfs"
    pool: list = []
    next_id = 1  # the root is node 0
    status = None

    def push(node: BnbNode) -> None:
        key = (-node.node_id,) if dfs else (-node.parent_bound, node.node_id)
        heapq.heappush(pool, (*key, node))

    def open_bound() -> float:
        """The largest parent bound of an open node, -inf with none open."""
        if dfs:
            return max((entry[-1].parent_bound for entry in pool), default=-math.inf)
        return -pool[0][0] if pool else -math.inf

    def node_lp(node: BnbNode):
        nonlocal std
        if std is None:
            std = StandardLp(mip)
        engine = SimplexEngine(std, node.bounds, deadline=deadline)
        cutoff = primal + PRUNE_TOL if incumbent is not None else None

        def solve() -> str:
            if node.basis is not None:
                return engine.solve_dual(node.basis, node.stat, cutoff=cutoff)
            if incumbent is not None and not node.bounds:
                return engine.solve_crash(solution_values(mip, incumbent),
                                          *defining_rows(mip))
            return engine.solve_cold()

        try:
            state = engine.solve_verified(solve)
        except NumericalFailureError:
            # the solve and its recovery failed: the node keeps its parent's
            # bound and gets a blind split
            return "stuck", engine
        return state, engine

    def branch(node: BnbNode, col: int, bound: float,
               basis: np.ndarray | None = None, stat: np.ndarray | None = None):
        """Push the children of `node` that fix column `col` to 0 and to 1,
        bounded by `bound` and warm-started from `basis` when one is given."""
        nonlocal next_id
        for value in (0.0, 1.0):
            push(BnbNode(depth=node.depth + 1, bounds={**node.bounds, col: (value, value)},
                         parent_bound=bound, basis=basis, stat=stat, node_id=next_id))
            next_id += 1

    push(BnbNode(depth=0, bounds={}, parent_bound=trivial_upper_bound(W, alpha), node_id=0))
    while pool:
        now = time.monotonic()
        dual_now = max(primal, open_bound())
        if deadline is not None and now > deadline:
            status = "time-limit"
            break
        if cfg.node_limit is not None and nodes_processed >= cfg.node_limit:
            status = "node-limit"
            break
        if incumbent is not None and dual_now <= primal + PRUNE_TOL:
            pool.clear()  # every open node is pruned
            break
        if incumbent is not None:
            gap_now = (dual_now - primal) / max(abs(primal), 1e-9)
            if gap_now <= cfg.gap_tol:
                status = "gap-limit"
                break
        node = heapq.heappop(pool)[-1]
        if incumbent is not None and node.parent_bound <= primal + PRUNE_TOL:
            continue
        state, engine = node_lp(node)
        nodes_processed += 1
        trace.append((nodes_processed, primal if incumbent else None, dual_now))
        if state == "stuck":
            # the LP and its recovery failed numerically; split blindly on
            # the first binary the node leaves unfixed (keeps the tree exact)
            # or, with all of them fixed, evaluate the implied clustering
            unfixed = np.flatnonzero(engine.lb[:nx] < engine.ub[:nx])
            if unfixed.size:
                branch(node, int(unfixed[0]), node.parent_bound)
                continue
            # scale factors are positive, so a binary fixed to 1 has lb > 0
            x = (engine.lb[:nx] > 0).reshape(n, m)
            if np.all(x.sum(axis=1) == 1) and np.all(x.any(axis=0)):
                offer(CycleClustering(n=n, m=m, assignment=np.argmax(x, axis=1) + 1))
            continue
        if state == "limit":
            if deadline is None:
                raise NumericalFailureError(
                    f"node {node.node_id}: iteration limit without a time limit"
                )
            # deadline hit mid-solve: the node goes back with its parent's
            # bound, as the interrupted iterate's objective may have drifted
            push(node)
            continue
        if state in ("infeasible", "cutoff"):
            continue
        bound = engine.objective()
        if incumbent is not None and bound <= primal + PRUNE_TOL:
            continue
        original = engine.original_values()
        xvals = original[:nx]
        frac = np.abs(xvals - np.round(xvals))
        worst = int(np.argmax(frac))
        if frac[worst] <= INTEGRALITY_TOL:
            offer(clustering_from_solution(mip, original[: mip.ncols]))
            continue
        if cfg.heuristics.rounding and node.depth % 5 == 0:
            offer(rounding_heuristic(mip, original[: mip.ncols], W))
            if incumbent is not None and bound <= primal + PRUNE_TOL:
                continue
        branch(node, worst, bound, engine.basis.copy(), engine.stat.copy())

    wall = time.monotonic() - start
    if status is None:
        status = "optimal" if incumbent is not None else "infeasible"
        dual = primal
    else:
        dual = max(primal, open_bound())
        if incumbent is None:  # a time or node limit before any incumbent
            dual = max(dual, trivial_upper_bound(W, alpha))
    if incumbent is None:
        return SolveResult(None, None, dual, None, nodes_processed, status, wall, trace)
    gap = (dual - primal) / max(abs(primal), 1e-9)
    if status == "gap-limit" and gap <= 0:
        status = "optimal"
    if status == "optimal" and objective(W, incumbent, alpha).flow_part < -1e-12:
        raise NumericalFailureError("optimal incumbent has negative flow part")
    return SolveResult(incumbent, primal, dual, gap, nodes_processed, status, wall, trace)
